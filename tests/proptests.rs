//! Cross-crate property tests: randomized inventories, intents, and
//! schedules must uphold CORNET's semantic invariants end to end.

use cornet::planner::{
    heuristic_schedule, plan, translate, ConstraintRule, HeuristicConfig, PlanIntent, PlanOptions,
    PlanResult, TranslateOptions,
};
use cornet::solver::SolverConfig;
use cornet::types::{
    Attributes, ConflictTable, Inventory, NfType, NodeId, SchedulingWindow, SimTime, Timeslot,
    Topology,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

/// Random small RAN-ish inventory: n nodes over up to 3 markets/timezones
/// and up to n USIDs.
fn arb_inventory() -> impl Strategy<Value = Inventory> {
    (2usize..14, 1usize..4, 1usize..5).prop_map(|(n, n_markets, usid_span)| {
        let mut inv = Inventory::new();
        for i in 0..n {
            // Realistic hierarchy: markets partition the nodes into
            // contiguous ranges so USIDs nest inside markets (a USID is a
            // physical cell site; it cannot straddle two markets).
            let market = i * n_markets / n;
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new()
                    .with("market", format!("M{market}"))
                    .with("utc_offset", -5.0 - market as f64)
                    .with("usid", format!("M{market}-U{}", i / usid_span))
                    .with("ems", format!("E{}", i % 2)),
            );
        }
        inv
    })
}

fn base_intent(capacity: i64, days: u32) -> PlanIntent {
    PlanIntent::from_json(&format!(
        r#"{{
        "scheduling_window": {{"start": "2020-07-01 00:00:00",
                               "end": "2020-07-{:02} 23:59:00",
                               "granularity": {{"metric": "day", "value": 1}}}},
        "maintenance_window": {{"start": "0:00", "end": "6:00"}},
        "schedulable_attribute": "common_id",
        "conflict_attribute": "common_id",
        "constraints": [
            {{"name": "concurrency", "base_attribute": "common_id",
              "operator": "<=", "granularity": {{"metric": "day", "value": 1}},
              "default_capacity": {capacity}}}
        ]
    }}"#,
        days
    ))
    .unwrap()
}

fn budgeted() -> PlanOptions {
    PlanOptions {
        solver: SolverConfig {
            max_nodes: 20_000,
            time_limit: Duration::from_millis(500),
            ..Default::default()
        },
        ..Default::default()
    }
}

proptest! {
    // 24 cases unless `PROPTEST_CASES` says otherwise: CI runs the
    // portfolio suite at depth with it.
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
    ))]

    /// Whatever constraint subset is active, a produced schedule must
    /// satisfy the model checker AND the semantic invariants derived from
    /// the intent.
    #[test]
    fn planner_schedules_respect_all_active_rules(
        inv in arb_inventory(),
        capacity in 2i64..5,
        use_consistency in any::<bool>(),
        use_uniformity in any::<bool>(),
        use_localize in any::<bool>(),
    ) {
        let nodes: Vec<NodeId> = inv.ids().collect();
        let mut intent = base_intent(capacity, 20);
        if use_consistency {
            intent.constraints.push(ConstraintRule::Consistency { attribute: "usid".into() });
        }
        if use_uniformity {
            intent.constraints.push(ConstraintRule::Uniformity {
                attribute: "utc_offset".into(),
                value: 1.0,
            });
        }
        if use_localize {
            intent.constraints.push(ConstraintRule::Localize { attribute: "market".into() });
        }
        let topo = Topology::with_capacity(nodes.len());
        let result = plan(&intent, &inv, &topo, &nodes, &budgeted()).unwrap();
        let schedule = &result.schedule;

        // Every node is scheduled or leftover, never both.
        let mut seen = std::collections::BTreeSet::new();
        for n in schedule.assignments.keys() {
            prop_assert!(seen.insert(*n));
        }
        for n in &schedule.leftovers {
            prop_assert!(seen.insert(*n), "{n:?} both scheduled and leftover");
        }
        prop_assert_eq!(seen.len(), nodes.len());

        // Capacity per slot.
        let mut per_slot: BTreeMap<Timeslot, i64> = BTreeMap::new();
        for slot in schedule.assignments.values() {
            *per_slot.entry(*slot).or_default() += 1;
        }
        for (slot, count) in &per_slot {
            prop_assert!(*count <= capacity, "slot {slot:?} holds {count} > {capacity}");
        }

        // Consistency: same usid → same slot (when both scheduled).
        if use_consistency {
            for (&a, &sa) in &schedule.assignments {
                for (&b, &sb) in &schedule.assignments {
                    if inv.group_key_of(a, "usid") == inv.group_key_of(b, "usid") {
                        prop_assert_eq!(sa, sb);
                    }
                }
            }
        }

        // Uniformity: co-slotted nodes within 1 timezone.
        if use_uniformity {
            for (&a, &sa) in &schedule.assignments {
                for (&b, &sb) in &schedule.assignments {
                    if sa == sb {
                        let ta = inv.attr_of(a, "utc_offset").unwrap().as_f64().unwrap();
                        let tb = inv.attr_of(b, "utc_offset").unwrap().as_f64().unwrap();
                        prop_assert!((ta - tb).abs() <= 1.0 + 1e-9);
                    }
                }
            }
        }

        // Localize: market slot-intervals must not properly interleave.
        if use_localize {
            let mut intervals: BTreeMap<String, (u32, u32)> = BTreeMap::new();
            for (&n, &slot) in &schedule.assignments {
                let m = inv.group_key_of(n, "market").unwrap();
                let e = intervals.entry(m).or_insert((slot.0, slot.0));
                e.0 = e.0.min(slot.0);
                e.1 = e.1.max(slot.0);
            }
            let mut sorted: Vec<(u32, u32)> = intervals.values().copied().collect();
            sorted.sort();
            for pair in sorted.windows(2) {
                prop_assert!(
                    pair[1].0 >= pair[0].1,
                    "market intervals interleave: {sorted:?}"
                );
            }
        }
    }

    /// The heuristic never violates capacity, never splits a USID, and
    /// accounts for every node exactly once.
    #[test]
    fn heuristic_invariants(
        inv in arb_inventory(),
        capacity in 1i64..6,
        days in 2u32..20,
        seed in 0u64..1000,
    ) {
        let nodes: Vec<NodeId> = inv.ids().collect();
        let window = SchedulingWindow::daily(SimTime::from_ymd_hm(2020, 7, 1, 0, 0), days);
        let schedule = heuristic_schedule(
            &inv,
            &nodes,
            &ConflictTable::new(),
            &window,
            &HeuristicConfig { slot_capacity: capacity, iterations: 3, seed },
        );
        prop_assert_eq!(
            schedule.scheduled_count() + schedule.leftovers.len(),
            nodes.len()
        );
        let mut per_slot: BTreeMap<Timeslot, i64> = BTreeMap::new();
        for slot in schedule.assignments.values() {
            *per_slot.entry(*slot).or_default() += 1;
        }
        for count in per_slot.values() {
            // A USID larger than the capacity can never fit, so such
            // nodes must be leftovers, not overloads.
            prop_assert!(*count <= capacity);
        }
        // USID atomicity among scheduled nodes.
        for (&a, &sa) in &schedule.assignments {
            for (&b, &sb) in &schedule.assignments {
                if inv.group_key_of(a, "usid") == inv.group_key_of(b, "usid") {
                    prop_assert_eq!(sa, sb);
                }
            }
        }
    }

    /// Translation always produces a model whose var count equals the
    /// unit count, and decoding a valid solver assignment never panics.
    #[test]
    fn translation_decode_round_trip(
        inv in arb_inventory(),
        capacity in 1i64..5,
    ) {
        let nodes: Vec<NodeId> = inv.ids().collect();
        let intent = base_intent(capacity, 10);
        let topo = Topology::with_capacity(nodes.len());
        let t = translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        prop_assert_eq!(t.model.var_count(), t.units.len());
        let solved = cornet::solver::solve(&t.model, &SolverConfig {
            max_nodes: 5_000,
            time_limit: Duration::from_millis(200),
            ..Default::default()
        });
        if let Some(best) = &solved.best {
            prop_assert!(t.model.check(&best.assignment).is_ok());
            let schedule = t.decode(&best.assignment, &ConflictTable::new());
            prop_assert_eq!(
                schedule.scheduled_count() + schedule.leftovers.len(),
                nodes.len()
            );
        }
    }

    /// A seeded fault plan fully determines execution: two dispatches of
    /// the same staggered roll-out under the same plan produce identical
    /// execution logs — block order, statuses, attempt counts, simulated
    /// durations, and backoffs — regardless of thread interleaving.
    #[test]
    fn seeded_fault_plan_reproduces_execution_log(
        seed in any::<u64>(),
        failure_rate in 0.0f64..0.45,
        latency_ms in 1u64..40,
        max_attempts in 2u32..6,
    ) {
        use cornet::catalog::builtin_catalog;
        use cornet::orchestrator::resilience::{FaultPlan, FaultyExecutor, RetryPolicy};
        use cornet::orchestrator::{Dispatcher, ExecutorRegistry, GlobalState};
        use cornet::types::{ParamValue, Schedule};
        use cornet::workflow::builtin::software_upgrade_workflow;
        use cornet::workflow::WarArtifact;

        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        let run = || {
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
            reg.register("roll_back", |_: &mut GlobalState| Ok(()));
            let plan = FaultPlan::transient(seed, failure_rate).with_latency_ms(latency_ms);
            let mut faulty = FaultyExecutor::wrap(&reg, &plan);
            faulty.set_default_retry_policy(RetryPolicy::with_attempts(max_attempts));
            let mut schedule = Schedule::default();
            for i in 0..12u32 {
                schedule.assignments.insert(NodeId(i), Timeslot(i / 4 + 1));
            }
            let report = Dispatcher::new(war.clone(), faulty, 3)
                .unwrap()
                .run(&schedule, |node| {
                    let mut g = GlobalState::new();
                    g.insert("node".into(), ParamValue::from(format!("enb-{node}")));
                    g.insert("software_version".into(), ParamValue::from("20.1"));
                    g
                })
                .unwrap();
            report
                .instances
                .iter()
                .flat_map(|i| {
                    let node = i.node.0;
                    i.blocks.iter().map(move |b| {
                        (
                            node,
                            b.block.clone(),
                            format!("{:?}", b.status),
                            b.attempts,
                            b.duration.as_millis(),
                            b.backoff.as_millis(),
                        )
                    })
                })
                .collect::<Vec<_>>()
        };
        let first = run();
        let second = run();
        prop_assert!(!first.is_empty());
        prop_assert_eq!(first, second, "same fault plan must replay identically");
    }

    /// The portfolio must return a bit-identical plan run after run: same
    /// winner, same schedule, same outcome, and every member the same
    /// outcome, cost and search counters. (Wall-clock never picks the
    /// winner, and no member's search depends on when another finished.)
    #[test]
    fn portfolio_race_is_bit_identical_across_runs(
        inv in arb_inventory(),
        capacity in 2i64..5,
        use_consistency in any::<bool>(),
    ) {
        let nodes: Vec<NodeId> = inv.ids().collect();
        let mut intent = base_intent(capacity, 16);
        if use_consistency {
            intent.constraints.push(ConstraintRule::Consistency { attribute: "usid".into() });
        }
        let topo = Topology::with_capacity(nodes.len());
        let options = PlanOptions {
            backend: cornet::planner::BackendChoice::Portfolio,
            ..budgeted()
        };
        let reference = plan(&intent, &inv, &topo, &nodes, &options).unwrap();
        let ref_winner = reference
            .backend_runs
            .iter()
            .find(|r| r.winner)
            .map(|r| r.backend);
        let members = |result: &PlanResult| {
            let runs = result.backend_runs.iter();
            runs.map(|r| (r.backend, r.outcome, r.cost, r.stats.nodes, r.stats.backtracks))
                .collect::<Vec<_>>()
        };
        for _ in 0..2 {
            let again = plan(&intent, &inv, &topo, &nodes, &options).unwrap();
            prop_assert_eq!(&again.schedule.assignments, &reference.schedule.assignments);
            prop_assert_eq!(&again.schedule.leftovers, &reference.schedule.leftovers);
            prop_assert_eq!(again.schedule.conflicts, reference.schedule.conflicts);
            prop_assert_eq!(again.outcome, reference.outcome);
            let winner = again.backend_runs.iter().find(|r| r.winner).map(|r| r.backend);
            prop_assert_eq!(winner, ref_winner);
            prop_assert_eq!(members(&again), members(&reference));
        }
    }

    /// `BackendChoice::Exact` through plan() is bit-identical to driving
    /// the translation and solver by hand (the refactor preserves the
    /// legacy pipeline's output).
    #[test]
    fn exact_backend_matches_manual_pipeline(
        inv in arb_inventory(),
        capacity in 2i64..5,
    ) {
        let nodes: Vec<NodeId> = inv.ids().collect();
        let intent = base_intent(capacity, 12);
        let topo = Topology::with_capacity(nodes.len());
        let options = budgeted();
        let result = plan(&intent, &inv, &topo, &nodes, &options).unwrap();

        let t = translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        let solved = cornet::solver::solve(&t.model, &options.solver);
        let manual = t.decode(&solved.solution().assignment, &intent.conflicts().unwrap());
        prop_assert_eq!(result.schedule.assignments, manual.assignments);
        prop_assert_eq!(result.schedule.leftovers, manual.leftovers);
        prop_assert_eq!(result.outcome, solved.outcome);
    }

    /// MiniZinc emission is total: any translated model renders non-empty
    /// text containing every variable.
    #[test]
    fn minizinc_emission_total(inv in arb_inventory()) {
        let nodes: Vec<NodeId> = inv.ids().collect();
        let intent = base_intent(3, 6);
        let topo = Topology::with_capacity(nodes.len());
        let t = translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        let mzn = t.model.to_minizinc();
        prop_assert!(mzn.contains("solve "));
        for v in &t.model.vars {
            let ident: String = v
                .name
                .to_string()
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
                .collect();
            prop_assert!(mzn.contains(&ident), "missing {ident}");
        }
    }
}
