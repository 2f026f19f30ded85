//! Every plan is the plan the pre-index planner made (ISSUE 23).
//!
//! `tests/golden/plan_fingerprints.txt` was generated at the commit before
//! `Inventory::group_by` got its attribute index and the planner its one
//! grouping primitive. One line per translation (model statistics and a
//! hash of its MiniZinc text) and one per plan (FNV-1a-64 over
//! assignments, leftovers and the conflict count), over seeded RAN
//! networks of 200, 1 000 and 3 000 nodes, the intents that reach every
//! arm of `translate`, and every backend whose answer is a function of its
//! input. All budgets are node budgets, so debug and release agree. The
//! last two lines, added later and generated by the planner of that time,
//! pin the ≈ 50 000-node heuristic plan of the `fleet_plan` intent.
//!
//! Regenerate (only when a plan change is intended) with
//! `UPDATE_GOLDEN=1 cargo test --test plan_fingerprints`.

use cornet::netsim::{Network, NetworkConfig};
use cornet::planner::intent::{ConflictPeriod, FrozenElement};
use cornet::planner::{
    plan, translate, BackendChoice, ConflictTolerance, ConstraintRule, GroupStrategy,
    HeuristicConfig, PlanIntent, PlanOptions, TranslateOptions,
};
use cornet::solver::{Outcome, SolverConfig};
use cornet::types::hash::fnv1a64;
use cornet::types::{Attributes, Granularity, Inventory, NfType, NodeId, Topology};
use std::fmt::Write;
use std::time::Duration;

/// 40 daily slots, as the `fleet_plan` workload plans against.
fn window_intent() -> PlanIntent {
    PlanIntent::from_json(
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
    .unwrap()
}

fn concurrency(base: &str, per: Option<&str>, capacity: i64) -> ConstraintRule {
    ConstraintRule::Concurrency {
        base_attribute: base.into(),
        aggregate_attribute: per.map(str::to_owned),
        operator: "<=".into(),
        granularity: Granularity::daily(),
        default_capacity: capacity,
    }
}

fn consistency() -> ConstraintRule {
    ConstraintRule::Consistency {
        attribute: "usid".into(),
    }
}

fn busy(intent: &mut PlanIntent, node: NodeId, from_day: u32, to_day: u32, tickets: usize) {
    intent
        .conflict_table
        .entry(node.to_string())
        .or_default()
        .push(ConflictPeriod {
            start: format!("2020-07-{from_day:02} 00:00:00"),
            end: format!("2020-07-{to_day:02} 23:59:00"),
            tickets: (0..tickets).map(|t| format!("CHG{t}")).collect(),
        });
}

struct Case {
    name: &'static str,
    intent: PlanIntent,
    translate: TranslateOptions,
}

/// The `fleet_plan` intent: daily capacity for 1/25 of the scope, and a
/// USID's nodes move together.
fn plain_intent(nodes: &[NodeId]) -> PlanIntent {
    let capacity = (nodes.len() as i64 / 25).max(4);
    let mut intent = window_intent();
    intent.constraints = vec![concurrency("common_id", None, capacity), consistency()];
    intent
}

/// The intents that, between them, reach every arm of `translate`.
fn cases(net: &Network, nodes: &[NodeId]) -> Vec<Case> {
    let capacity = (nodes.len() as i64 / 25).max(4);
    let plain = || plain_intent(nodes);
    let case = |name, intent| Case {
        name,
        intent,
        translate: TranslateOptions::default(),
    };
    let mut out = vec![case("plain", plain())];

    let mut per_ems = window_intent();
    per_ems.constraints = vec![concurrency("common_id", Some("ems"), capacity / 4 + 1)];
    out.push(case("per_ems", per_ems));

    for (name, strategy) in [
        ("market_linking", GroupStrategy::LinkingVars),
        ("market_hybrid", GroupStrategy::HybridWeights),
    ] {
        let mut intent = plain();
        intent.constraints.push(concurrency("market", None, 3));
        out.push(Case {
            name,
            intent,
            translate: TranslateOptions {
                strategy,
                ..TranslateOptions::default()
            },
        });
    }

    let mut local = plain();
    local.constraints.push(ConstraintRule::Localize {
        attribute: "market".into(),
    });
    local.constraints.push(ConstraintRule::Uniformity {
        attribute: "utc_offset".into(),
        value: 1.0,
    });
    // This search runs to its budget and its first dive alone takes 4 s at
    // 3 000 nodes in a debug build; the two smaller networks reach the
    // same arms.
    if nodes.len() < 2_000 {
        out.push(case("localize_uniformity", local));
    }

    let mut by_market = window_intent();
    by_market.schedulable_attribute = "market".into();
    // Units weigh their node count: room for about three markets a slot.
    by_market.constraints = vec![concurrency("market", None, nodes.len() as i64 / 3)];
    out.push(case("esa_market", by_market));

    // Every 7th node busy on days 1–3 under two tickets, every 21st also
    // on days 10–12.
    let ticketed = |tolerance| {
        let mut intent = plain();
        intent
            .constraints
            .push(ConstraintRule::ConflictHandling { value: tolerance });
        for (i, &n) in nodes.iter().enumerate().filter(|(i, _)| i % 7 == 0) {
            busy(&mut intent, n, 1, 3, 2);
            if i % 21 == 0 {
                busy(&mut intent, n, 10, 12, 1);
            }
        }
        intent
    };
    out.push(case("conflicts_zero", ticketed(ConflictTolerance::Zero)));
    out.push(case(
        "conflicts_minimize",
        ticketed(ConflictTolerance::Minimize),
    ));

    // Tickets on every 5th SIAD — out of scope itself — reach its base
    // stations through the topology.
    let mut chain = plain();
    chain.constraints.push(ConstraintRule::ConflictScope {
        value: "service_chain".into(),
    });
    for &siad in net.nodes_of_type(NfType::Siad).iter().step_by(5) {
        busy(&mut chain, siad, 2, 4, 1);
    }
    busy(&mut chain, nodes[0], 1, 1, 1);
    out.push(case("conflicts_service_chain", chain));

    let market = net.inventory.group_key_of(nodes[0], "market").unwrap();
    let freeze = |start: Option<&str>, end: Option<&str>| {
        let mut intent = plain();
        intent.frozen_elements.push(FrozenElement {
            start: start.map(str::to_owned),
            end: end.map(str::to_owned),
            selector: [("market".to_string(), market.clone())].into(),
        });
        intent
    };
    out.push(case("freeze_full", freeze(None, None)));
    out.push(case(
        "freeze_period",
        freeze(Some("2020-07-01 00:00:00"), Some("2020-07-05 23:59:00")),
    ));

    out.push(Case {
        name: "expanded",
        intent: plain(),
        translate: TranslateOptions {
            contract_consistency: false,
            ..TranslateOptions::default()
        },
    });
    out
}

/// Node budgets only: the time limit never binds, so a line does not
/// depend on the machine or the build profile.
fn options(backend: BackendChoice, decompose: bool, translate: &TranslateOptions) -> PlanOptions {
    PlanOptions {
        translate: translate.clone(),
        solver: SolverConfig {
            max_nodes: 8_000,
            time_limit: Duration::from_secs(600),
            ..SolverConfig::default()
        },
        backend,
        heuristic: HeuristicConfig {
            iterations: 4,
            seed: 11,
            ..HeuristicConfig::default()
        },
        decompose,
        ..PlanOptions::default()
    }
}

fn plan_line(
    out: &mut String,
    label: &str,
    inventory: &Inventory,
    topology: &Topology,
    nodes: &[NodeId],
    intent: &PlanIntent,
    options: &PlanOptions,
) -> Outcome {
    let r = plan(intent, inventory, topology, nodes, options)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut bytes = Vec::new();
    for (node, slot) in &r.schedule.assignments {
        bytes.extend_from_slice(&node.0.to_le_bytes());
        bytes.extend_from_slice(&slot.0.to_le_bytes());
    }
    for node in &r.schedule.leftovers {
        bytes.extend_from_slice(&node.0.to_le_bytes());
    }
    bytes.extend_from_slice(&(r.schedule.conflicts as u64).to_le_bytes());
    writeln!(
        out,
        "{label} plan={:016x} outcome={:?} scheduled={} leftovers={} conflicts={} makespan={}",
        fnv1a64(&bytes),
        r.outcome,
        r.schedule.scheduled_count(),
        r.schedule.leftovers.len(),
        r.schedule.conflicts,
        r.makespan(),
    )
    .unwrap();
    r.outcome
}

fn model_line(
    out: &mut String,
    label: &str,
    inventory: &Inventory,
    topology: &Topology,
    nodes: &[NodeId],
    case: &Case,
) {
    let t = translate(&case.intent, inventory, topology, nodes, &case.translate)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let stats = t.model.stats();
    let kinds: Vec<String> = stats
        .by_kind
        .iter()
        .map(|(kind, count)| format!("{kind}:{count}"))
        .collect();
    writeln!(
        out,
        "{label} vars={} domain={} constraints={} refs={} kinds={} units={} frozen_out={} mzn={:016x}",
        stats.vars,
        stats.total_domain,
        stats.constraints,
        stats.var_references,
        kinds.join(","),
        t.units.len(),
        t.frozen_out.len(),
        fnv1a64(t.model.to_minizinc().as_bytes()),
    )
    .unwrap();
}

/// Model and plan lines of one case on one network. The two racing
/// backends promise a timing-independent answer only for a search that
/// completes, so they are held to the cases the exact backend proves
/// optimal under the node budget.
fn case_lines(
    out: &mut String,
    prefix: &str,
    inventory: &Inventory,
    topology: &Topology,
    nodes: &[NodeId],
    case: &Case,
) {
    let label = |what: &str| format!("{prefix}.{}.{what}", case.name);
    model_line(out, &label("model"), inventory, topology, nodes, case);
    let mut run = |what: &str, backend, decompose| {
        let options = options(backend, decompose, &case.translate);
        plan_line(
            out,
            &label(what),
            inventory,
            topology,
            nodes,
            &case.intent,
            &options,
        )
    };
    let exact = run("exact", BackendChoice::Exact, false);
    run("heuristic", BackendChoice::Heuristic, false);
    run("decomposed", BackendChoice::Exact, true);
    if exact == Outcome::Optimal {
        run("portfolio", BackendChoice::Portfolio, false);
        run("sharded", BackendChoice::Sharded, false);
    }
}

/// An inventory whose market and TAC names sort differently from the order
/// they are first seen in, with bundles that lack a market, a TAC or an
/// offset, and an integer offset beside a float one: Algorithm 1 must walk
/// them as the string-keyed hierarchy did, `"-"` standing for "missing".
fn unordered_inventory() -> Inventory {
    let mut inv = Inventory::new();
    let markets = ["zeta", "Alpha", "!bang", "mid", "-", "alpha"];
    for i in 0..180usize {
        let mut attrs = Attributes::new().with("usid", format!("U{:03}", i / 2));
        let site = i / 2;
        match site % 7 {
            6 => {}
            m => attrs = attrs.with("market", markets[m]),
        }
        match site % 5 {
            4 => {}
            t => {
                attrs = attrs.with(
                    "tac",
                    format!("{}{}", ["t9", "T1", "t10", "-x"][t], site % 3),
                )
            }
        }
        attrs = match site % 4 {
            0 => attrs.with("utc_offset", -5.0),
            1 => attrs.with("utc_offset", -6i64),
            2 => attrs.with("utc_offset", -6.0),
            _ => attrs,
        };
        let nf = if i % 2 == 0 {
            NfType::ENodeB
        } else {
            NfType::GNodeB
        };
        inv.push(format!("n{i:03}"), nf, attrs);
    }
    inv
}

/// The seeded RAN network of about `target` nodes and its base stations.
fn ran_network(target: usize) -> (Network, Vec<NodeId>) {
    let config = NetworkConfig {
        seed: 23,
        ..NetworkConfig::default()
    }
    .with_target_nodes(target);
    let net = Network::generate_ran(&config);
    let mut nodes = net.nodes_of_type(NfType::ENodeB);
    nodes.extend(net.nodes_of_type(NfType::GNodeB));
    nodes.sort();
    (net, nodes)
}

/// Lines of the seeded RAN network of about `target` nodes.
fn ran_lines(target: usize) -> String {
    let mut out = String::new();
    let (net, nodes) = ran_network(target);
    for case in cases(&net, &nodes) {
        case_lines(
            &mut out,
            &format!("n{target}"),
            &net.inventory,
            &net.topology,
            &nodes,
            &case,
        );
    }
    out
}

/// The plain intent on a network of `fleet_plan`'s heuristic class, where
/// only Algorithm 1 plans: its model line and its heuristic plan line.
fn fleet_lines() -> String {
    let mut out = String::new();
    let (net, nodes) = ran_network(50_000);
    let case = Case {
        name: "plain",
        intent: plain_intent(&nodes),
        translate: TranslateOptions::default(),
    };
    let (inventory, topology) = (&net.inventory, &net.topology);
    model_line(
        &mut out,
        "n50000.plain.model",
        inventory,
        topology,
        &nodes,
        &case,
    );
    let options = options(BackendChoice::Heuristic, false, &case.translate);
    let label = "n50000.plain.heuristic";
    plan_line(
        &mut out,
        label,
        inventory,
        topology,
        &nodes,
        &case.intent,
        &options,
    );
    out
}

fn unordered_lines() -> String {
    let mut out = String::new();
    let inv = unordered_inventory();
    let nodes: Vec<NodeId> = inv.ids().collect();
    let topo = Topology::with_capacity(nodes.len());
    let mut intent = window_intent();
    intent.constraints = vec![concurrency("common_id", None, 8), consistency()];
    let case = Case {
        name: "plain",
        intent,
        translate: TranslateOptions::default(),
    };
    case_lines(&mut out, "unordered", &inv, &topo, &nodes, &case);
    out
}

#[test]
fn every_plan_is_the_plan_before_the_attribute_index() {
    // Five independent sections, rendered side by side.
    let rendered: String = std::thread::scope(|scope| {
        let sections = [
            scope.spawn(|| ran_lines(200)),
            scope.spawn(|| ran_lines(1_000)),
            scope.spawn(|| ran_lines(3_000)),
            scope.spawn(unordered_lines),
            scope.spawn(fleet_lines),
        ];
        let rendered = sections
            .into_iter()
            .map(|s| s.join().expect("a section renders"));
        rendered.collect()
    });
    let path = format!(
        "{}/tests/golden/plan_fingerprints.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("golden file written");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} (regenerate with UPDATE_GOLDEN=1)"));
    for (got, want) in rendered.lines().zip(golden.lines()) {
        assert_eq!(got, want, "a plan or model differs from the golden");
    }
    assert_eq!(rendered.lines().count(), golden.lines().count());
}
