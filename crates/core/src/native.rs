//! Native (NF-agnostic) executors for the schedule-planning and
//! impact-verification workflows.
//!
//! Table 2 flags blocks like `model_translation`, `optimization_solver`,
//! `aggregate_kpi` and `impact_detection` as NF-agnostic "data analytic
//! capabilities". Here they are bound to the real planner and verifier so
//! that *planning and verification themselves run as CORNET workflows* —
//! the composition the §4.2/§4.3 re-use numbers count.
//!
//! Blocks exchange small values through the instance's global state
//! (node-id lists, the intent JSON, the emitted model text, the
//! discovered schedule); heavyweight artifacts (the typed `Translation`,
//! the `ChangeScope`) ride in a shared context the closures capture.

use cornet_orchestrator::executor::{ExecutorRegistry, GlobalState};
use cornet_planner::{intent::parse_display_id, translate, PlanIntent, TranslateOptions};
use cornet_solver::{solve, SolverConfig};
use cornet_types::json::{parse, FloatFmt, JsonValue, JsonWriter};
use cornet_types::{CornetError, Inventory, NodeId, ParamValue, Result, Topology};
use cornet_verifier::{
    derive_control_group, verify_rule, ChangeScope, DataAdapter, GoNoGo, VerificationRule,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Parse external JSON text into a workflow-state [`ParamValue`] — the
/// entry point for feeding intents (or any operator-supplied document)
/// into a workflow's global state. JSON `null` has no `ParamValue`
/// analogue and is rejected.
pub fn param_value_from_json(json: &str) -> Result<ParamValue> {
    fn convert(v: &JsonValue) -> Result<ParamValue> {
        Ok(match v {
            JsonValue::Null => {
                return Err(CornetError::Parse(
                    "JSON null has no workflow-state representation".into(),
                ))
            }
            JsonValue::Bool(b) => ParamValue::Bool(*b),
            JsonValue::Number(n) => {
                if n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(n) {
                    ParamValue::Int(*n as i64)
                } else {
                    ParamValue::Float(*n)
                }
            }
            JsonValue::String(s) => ParamValue::Str(s.clone()),
            JsonValue::Array(items) => {
                ParamValue::List(items.iter().map(convert).collect::<Result<_>>()?)
            }
            JsonValue::Object(entries) => ParamValue::Map(
                entries
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), convert(v)?)))
                    .collect::<Result<_>>()?,
            ),
        })
    }
    convert(&parse(json)?)
}

/// Render a workflow-state [`ParamValue`] as JSON text — the inverse of
/// [`param_value_from_json`], used to hand state values to JSON-speaking
/// consumers like `PlanIntent::from_json`. Non-finite floats render as
/// `null`.
pub fn param_value_to_json(value: &ParamValue) -> String {
    fn write(w: &mut JsonWriter<'_>, v: &ParamValue) {
        match v {
            ParamValue::Str(s) => w.str(s),
            ParamValue::Int(i) => w.int(*i),
            ParamValue::Float(f) => w.float(*f, FloatFmt::Debug),
            ParamValue::Bool(b) => w.bool(*b),
            ParamValue::List(items) => {
                w.begin_array();
                for item in items {
                    write(w, item);
                }
                w.end_array()
            }
            ParamValue::Map(entries) => {
                w.begin_object();
                for (k, item) in entries {
                    write(w.key(k), item);
                }
                w.end_object()
            }
        };
    }
    let mut out = String::new();
    write(&mut JsonWriter::compact(&mut out), value);
    out
}

/// Read a node-id list (`["id000001", …]`) from the state.
fn read_nodes(state: &GlobalState, key: &str) -> Result<Vec<NodeId>> {
    let list = state
        .get(key)
        .and_then(|v| v.as_list())
        .ok_or_else(|| CornetError::ExecutionFailed(format!("missing list input '{key}'")))?;
    list.iter()
        .map(|v| {
            v.as_str()
                .ok_or_else(|| CornetError::ExecutionFailed(format!("non-string id in '{key}'")))
                .and_then(parse_display_id)
        })
        .collect()
}

/// Write a node-id list into the state.
fn write_nodes(state: &mut GlobalState, key: &str, nodes: &[NodeId]) {
    state.insert(
        key.to_owned(),
        ParamValue::List(
            nodes
                .iter()
                .map(|n| ParamValue::from(n.to_string()))
                .collect(),
        ),
    );
}

/// Build the executor registry for the schedule-planning workflow
/// (`detect_conflicts → extract_topology → extract_inventory →
/// model_translation → optimization_solver`).
pub fn planning_registry(
    inventory: Inventory,
    topology: Topology,
    solver_config: SolverConfig,
) -> ExecutorRegistry {
    let inventory = Arc::new(inventory);
    let topology = Arc::new(topology);
    // Translation handed from model_translation to optimization_solver.
    let pending = Arc::new(Mutex::new(None::<cornet_planner::Translation>));
    let mut reg = ExecutorRegistry::new();

    let read_intent = |state: &GlobalState| -> Result<PlanIntent> {
        let intent_value = state.get("intent").ok_or_else(|| {
            CornetError::ExecutionFailed("missing 'intent' in workflow state".into())
        })?;
        PlanIntent::from_json(&param_value_to_json(intent_value))
    };

    reg.register("detect_conflicts", move |state: &mut GlobalState| {
        let intent = read_intent(state)?;
        let nodes = read_nodes(state, "nodes")?;
        let conflicts = intent.conflicts()?;
        let mut per_node = BTreeMap::new();
        let window = intent.window()?;
        for &n in &nodes {
            let count: usize = window
                .usable_slots()
                .iter()
                .map(|&s| {
                    let (start, end) = window.slot_period(s);
                    conflicts.conflicts_in(n, start, end)
                })
                .sum();
            if count > 0 {
                per_node.insert(n.to_string(), ParamValue::Int(count as i64));
            }
        }
        state.insert("conflict_table".into(), ParamValue::Map(per_node));
        Ok(())
    });

    let topo = topology.clone();
    reg.register("extract_topology", move |state: &mut GlobalState| {
        let nodes = read_nodes(state, "nodes")?;
        let in_scope: std::collections::BTreeSet<NodeId> = nodes.iter().copied().collect();
        let dependent_pairs = nodes
            .iter()
            .map(|&n| {
                topo.neighbors(n)
                    .iter()
                    .filter(|nb| in_scope.contains(nb))
                    .count()
            })
            .sum::<usize>()
            / 2;
        let mut m = BTreeMap::new();
        m.insert(
            "dependent_pairs".to_string(),
            ParamValue::Int(dependent_pairs as i64),
        );
        m.insert(
            "chains".to_string(),
            ParamValue::Int(topo.chains().len() as i64),
        );
        state.insert("topology".into(), ParamValue::Map(m));
        Ok(())
    });

    let inv = inventory.clone();
    reg.register("extract_inventory", move |state: &mut GlobalState| {
        let nodes = read_nodes(state, "nodes")?;
        let mut m = BTreeMap::new();
        for attr in ["market", "tac", "usid", "ems", "timezone", "hw_version"] {
            let groups = inv.group_by(&nodes, attr);
            if groups.group_count() > 0 {
                m.insert(
                    attr.to_string(),
                    ParamValue::Int(groups.group_count() as i64),
                );
            }
        }
        state.insert("inventory".into(), ParamValue::Map(m));
        Ok(())
    });

    let inv = inventory.clone();
    let topo = topology.clone();
    let pend = pending.clone();
    reg.register("model_translation", move |state: &mut GlobalState| {
        let intent = read_intent(state)?;
        let nodes = read_nodes(state, "nodes")?;
        let translation = translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default())?;
        state.insert(
            "model".into(),
            ParamValue::from(translation.model.to_minizinc()),
        );
        *pend.lock().unwrap_or_else(|e| e.into_inner()) = Some(translation);
        Ok(())
    });

    let pend = pending;
    reg.register("optimization_solver", move |state: &mut GlobalState| {
        let intent = read_intent(state)?;
        let translation = pend
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .ok_or_else(|| {
                CornetError::ExecutionFailed(
                    "optimization_solver ran before model_translation".into(),
                )
            })?;
        let result = solve(&translation.model, &solver_config);
        let Some(best) = result.best else {
            return Err(CornetError::Infeasible(
                "no schedule under the intent".into(),
            ));
        };
        let schedule = translation.decode(&best.assignment, &intent.conflicts()?);
        let mut m = BTreeMap::new();
        for (node, slot) in &schedule.assignments {
            m.insert(node.to_string(), ParamValue::Int(slot.0 as i64));
        }
        state.insert("schedule".into(), ParamValue::Map(m));
        state.insert(
            "makespan".into(),
            ParamValue::Int(schedule.makespan().map(|s| s.0 as i64).unwrap_or(0)),
        );
        state.insert(
            "leftovers".into(),
            ParamValue::Int(schedule.leftovers.len() as i64),
        );
        Ok(())
    });

    reg
}

/// Build the executor registry for the impact-verification workflow
/// (`change_scope → extract_kpi → extract_topology_verify →
/// extract_inventory_verify → aggregate_kpi → impact_detection`).
///
/// `ticket_scope` maps ticket ids to the (node, change-minute) pairs the
/// ticketing system records — the data `change_scope` resolves.
pub fn verification_registry(
    adapter: Arc<dyn DataAdapter + Send + Sync>,
    inventory: Inventory,
    topology: Topology,
    rule: VerificationRule,
    ticket_scope: BTreeMap<String, Vec<(NodeId, u64)>>,
) -> ExecutorRegistry {
    let inventory = Arc::new(inventory);
    let topology = Arc::new(topology);
    let rule = Arc::new(rule);
    let scope_ctx = Arc::new(Mutex::new(None::<ChangeScope>));
    let control_ctx = Arc::new(Mutex::new(Vec::<NodeId>::new()));
    let mut reg = ExecutorRegistry::new();

    let tickets_map = Arc::new(ticket_scope);
    let scope_out = scope_ctx.clone();
    reg.register("change_scope", move |state: &mut GlobalState| {
        let tickets = state
            .get("tickets")
            .and_then(|v| v.as_list())
            .ok_or_else(|| CornetError::ExecutionFailed("missing 'tickets' list".into()))?;
        let mut scope = ChangeScope::default();
        for t in tickets {
            let id = t
                .as_str()
                .ok_or_else(|| CornetError::ExecutionFailed("non-string ticket".into()))?;
            let entries = tickets_map.get(id).ok_or_else(|| {
                CornetError::UnknownReference(format!("ticket '{id}' not in the change log"))
            })?;
            for (node, minute) in entries {
                scope.changes.insert(*node, *minute);
            }
        }
        if scope.changes.is_empty() {
            return Err(CornetError::ExecutionFailed(
                "tickets resolve to no nodes".into(),
            ));
        }
        let nodes = scope.nodes();
        write_nodes(state, "nodes", &nodes);
        let times: BTreeMap<String, ParamValue> = scope
            .changes
            .iter()
            .map(|(n, m)| (n.to_string(), ParamValue::Int(*m as i64)))
            .collect();
        state.insert("change_times".into(), ParamValue::Map(times));
        *scope_out.lock().unwrap_or_else(|e| e.into_inner()) = Some(scope);
        Ok(())
    });

    let ad = adapter.clone();
    reg.register("extract_kpi", move |state: &mut GlobalState| {
        let nodes = read_nodes(state, "nodes")?;
        let kpis = state
            .get("kpi_names")
            .and_then(|v| v.as_list())
            .ok_or_else(|| CornetError::ExecutionFailed("missing 'kpi_names' list".into()))?;
        let mut m = BTreeMap::new();
        for k in kpis {
            let kpi = k
                .as_str()
                .ok_or_else(|| CornetError::ExecutionFailed("non-string KPI name".into()))?;
            let present = nodes
                .iter()
                .filter(|&&n| ad.series(n, kpi, None).is_some())
                .count();
            if present == 0 {
                return Err(CornetError::DataIntegrity(format!(
                    "no data feed carries KPI '{kpi}' for the scope"
                )));
            }
            m.insert(kpi.to_owned(), ParamValue::Int(present as i64));
        }
        state.insert("kpi_data".into(), ParamValue::Map(m));
        Ok(())
    });

    let topo = topology.clone();
    let inv = inventory.clone();
    let r = rule.clone();
    let control_out = control_ctx.clone();
    reg.register("extract_topology_verify", move |state: &mut GlobalState| {
        let nodes = read_nodes(state, "nodes")?;
        let control = derive_control_group(
            &r.control,
            &nodes,
            &topo,
            &inv,
            r.control_attr_filter.as_deref(),
        );
        write_nodes(state, "control_candidates", &control);
        *control_out.lock().unwrap_or_else(|e| e.into_inner()) = control;
        Ok(())
    });

    let inv = inventory.clone();
    let r = rule.clone();
    reg.register(
        "extract_inventory_verify",
        move |state: &mut GlobalState| {
            let nodes = read_nodes(state, "nodes")?;
            let mut m = BTreeMap::new();
            for attr in &r.location_attributes {
                let groups = inv.group_by(&nodes, attr);
                m.insert(attr.clone(), ParamValue::Int(groups.group_count() as i64));
            }
            state.insert("attributes".into(), ParamValue::Map(m));
            Ok(())
        },
    );

    let r = rule.clone();
    reg.register("aggregate_kpi", move |state: &mut GlobalState| {
        // Summarize the aggregation plan: per KPI, the number of
        // (overall + per-location-value) streams the detector will test.
        let attributes = state
            .get("attributes")
            .and_then(|v| v.as_map())
            .cloned()
            .unwrap_or_default();
        let location_groups: i64 = attributes.values().filter_map(|v| v.as_i64()).sum();
        let mut m = BTreeMap::new();
        for q in &r.kpis {
            m.insert(q.kpi.clone(), ParamValue::Int(1 + location_groups));
        }
        state.insert("aggregated".into(), ParamValue::Map(m));
        Ok(())
    });

    let ad = adapter;
    let inv = inventory;
    let topo = topology;
    let r = rule;
    let scope_in = scope_ctx;
    reg.register("impact_detection", move |state: &mut GlobalState| {
        let scope = scope_in
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .ok_or_else(|| CornetError::ExecutionFailed("change_scope did not run".into()))?;
        let report = verify_rule(ad.as_ref(), &r, &scope, &inv, &topo)?;
        let impacts: Vec<ParamValue> = report
            .kpis
            .iter()
            .map(|k| {
                ParamValue::from(format!(
                    "{}: {:?} (shift {:+.1}%, p={:.2e})",
                    k.query.kpi,
                    k.overall.verdict,
                    k.overall.relative_shift * 100.0,
                    k.overall.p_value
                ))
            })
            .collect();
        state.insert("impacts".into(), ParamValue::List(impacts));
        state.insert(
            "verdict".into(),
            ParamValue::from(match report.decision {
                GoNoGo::Go => "go",
                GoNoGo::NoGo => "no-go",
            }),
        );
        Ok(())
    });

    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_catalog::builtin_catalog;
    use cornet_netsim::{ImpactKind, InjectedImpact, KpiGenerator, Network, NetworkConfig};
    use cornet_orchestrator::{Engine, InstanceStatus};
    use cornet_types::NfType;
    use cornet_verifier::{ClosureAdapter, ControlSelection, Expectation, KpiQuery};
    use cornet_workflow::builtin::{impact_verification_workflow, schedule_planning_workflow};

    const INTENT: &str = r#"{
        "scheduling_window": {"start": "2020-07-01 00:00:00",
                               "end": "2020-07-10 23:59:00",
                               "granularity": {"metric": "day", "value": 1}},
        "maintenance_window": {"start": "0:00", "end": "6:00"},
        "schedulable_attribute": "common_id",
        "conflict_attribute": "common_id",
        "constraints": [
            {"name": "concurrency", "base_attribute": "common_id",
             "operator": "<=", "granularity": {"metric": "day", "value": 1},
             "default_capacity": 3}
        ]
    }"#;

    fn ran() -> Network {
        Network::generate_ran(&NetworkConfig {
            markets_per_tz: 1,
            tacs_per_market: 1,
            usids_per_tac: 3,
            gnb_probability: 0.0,
            ..Default::default()
        })
    }

    fn planning_inputs(nodes: &[NodeId]) -> GlobalState {
        let mut state = GlobalState::new();
        write_nodes(&mut state, "nodes", nodes);
        let intent_pv = param_value_from_json(INTENT).unwrap();
        state.insert("intent".into(), intent_pv);
        state
    }

    #[test]
    fn planning_workflow_discovers_schedule() {
        let net = ran();
        let enbs = net.nodes_of_type(NfType::ENodeB);
        let cat = builtin_catalog();
        let wf = schedule_planning_workflow(&cat);
        let budget = SolverConfig {
            max_nodes: 50_000,
            time_limit: std::time::Duration::from_secs(2),
            ..Default::default()
        };
        let reg = planning_registry(net.inventory.clone(), net.topology.clone(), budget);
        let mut engine = Engine::new(wf, reg, planning_inputs(&enbs));
        assert_eq!(engine.run().unwrap(), &InstanceStatus::Completed);
        // All five blocks executed in order.
        let blocks: Vec<&str> = engine.log().iter().map(|b| b.block.as_str()).collect();
        assert_eq!(
            blocks,
            vec![
                "detect_conflicts",
                "extract_topology",
                "extract_inventory",
                "model_translation",
                "optimization_solver"
            ]
        );
        // The schedule landed in the state: 12 eNodeBs at 3/slot → 4 slots.
        let schedule = engine
            .state_var("schedule")
            .and_then(|v| v.as_map())
            .unwrap();
        assert_eq!(schedule.len(), enbs.len());
        assert_eq!(
            engine.state_var("makespan").and_then(|v| v.as_i64()),
            Some(4)
        );
        assert_eq!(
            engine.state_var("leftovers").and_then(|v| v.as_i64()),
            Some(0)
        );
        let model = engine.state_var("model").and_then(|v| v.as_str()).unwrap();
        assert!(model.contains("COMMON_ID_SCHEDULED"));
    }

    #[test]
    fn state_values_round_trip_and_malformed_text_is_positioned() {
        let v = param_value_from_json(r#"{"a": [1, 2.5, "x\n"], "b": true}"#).unwrap();
        assert_eq!(param_value_to_json(&v), r#"{"a":[1,2.5,"x\n"],"b":true}"#);
        let Err(CornetError::Parse(msg)) = param_value_from_json("[1, }") else {
            panic!("malformed text must be a parse error");
        };
        assert_eq!(msg, "JSON at byte 4: expected a JSON value");
    }

    #[test]
    fn solver_block_requires_translation_first() {
        let net = ran();
        let reg = planning_registry(
            net.inventory.clone(),
            net.topology.clone(),
            SolverConfig::default(),
        );
        let mut state = planning_inputs(&net.nodes_of_type(NfType::ENodeB));
        let err = reg.execute("optimization_solver", &mut state);
        assert!(
            err.is_err(),
            "running the solver without a model must fail loudly"
        );
    }

    #[test]
    fn verification_workflow_reaches_verdict() {
        let net = ran();
        let enbs = net.nodes_of_type(NfType::ENodeB);
        let study = &enbs[..4];
        // Ground truth: clear improvement on the study nodes.
        let impacts: Vec<InjectedImpact> = study
            .iter()
            .map(|&n| InjectedImpact {
                node: n,
                kpi: "thr".into(),
                carrier: None,
                at_minute: 12_000,
                kind: ImpactKind::LevelShift,
                magnitude: 0.3,
            })
            .collect();
        let gen = KpiGenerator {
            seed: 33,
            noise: 0.02,
            ..Default::default()
        };
        let adapter = Arc::new(ClosureAdapter(
            move |node: NodeId, kpi: &str, carrier: Option<usize>| {
                Some(gen.series(node, kpi, carrier, 500, &impacts))
            },
        ));
        let rule = VerificationRule {
            name: "wf-rule".into(),
            kpis: vec![KpiQuery::expecting("thr", true, Expectation::Improve)],
            location_attributes: vec!["market".into()],
            control: ControlSelection::Explicit(enbs[4..].to_vec()),
            control_attr_filter: None,
            timescales: vec![1, 24],
            alpha: 0.01,
            min_relative_shift: 0.01,
        };
        let mut tickets = BTreeMap::new();
        tickets.insert(
            "CHG-001".to_string(),
            study.iter().map(|&n| (n, 12_000u64)).collect::<Vec<_>>(),
        );
        let cat = builtin_catalog();
        let wf = impact_verification_workflow(&cat);
        let reg = verification_registry(
            adapter,
            net.inventory.clone(),
            net.topology.clone(),
            rule,
            tickets,
        );
        let mut state = GlobalState::new();
        state.insert(
            "tickets".into(),
            ParamValue::List(vec![ParamValue::from("CHG-001")]),
        );
        state.insert(
            "kpi_names".into(),
            ParamValue::List(vec![ParamValue::from("thr")]),
        );
        let mut engine = Engine::new(wf, reg, state);
        assert_eq!(engine.run().unwrap(), &InstanceStatus::Completed);
        assert_eq!(
            engine.state_var("verdict").and_then(|v| v.as_str()),
            Some("go")
        );
        let impacts_out = engine
            .state_var("impacts")
            .and_then(|v| v.as_list())
            .unwrap();
        assert_eq!(impacts_out.len(), 1);
        assert!(impacts_out[0].as_str().unwrap().contains("Improvement"));
    }

    #[test]
    fn unknown_ticket_fails_at_change_scope() {
        let net = ran();
        let reg = verification_registry(
            Arc::new(ClosureAdapter(|_: NodeId, _: &str, _: Option<usize>| None)),
            net.inventory.clone(),
            net.topology.clone(),
            VerificationRule::standard("r", vec![]),
            BTreeMap::new(),
        );
        let cat = builtin_catalog();
        let wf = impact_verification_workflow(&cat);
        let mut state = GlobalState::new();
        state.insert(
            "tickets".into(),
            ParamValue::List(vec![ParamValue::from("GHOST")]),
        );
        state.insert("kpi_names".into(), ParamValue::List(vec![]));
        let mut engine = Engine::new(wf, reg, state);
        let status = engine.run().unwrap().clone();
        assert_eq!(status, InstanceStatus::Failed("change_scope".into()));
    }
}
