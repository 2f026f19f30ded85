//! The `cornet check` gate: every static-analysis pass over a MOP
//! bundle, as one function.
//!
//! A MOP ("method of procedure") bundle is everything a change ships
//! with: the workflows to execute, the scheduling intent, the
//! verification rules, the resilience configuration, and the campaigns
//! already planned against the same network. Each piece has its own
//! analyzer (`cornet_workflow::analyze`, `cornet_planner::analyze_intent`,
//! `cornet_planner::analyze_campaigns`,
//! `cornet_orchestrator::analyze_resilience`,
//! `cornet_verifier::analyze_rules`); [`check`] runs them in one fixed
//! order into one deterministic [`Report`] — the artifact the CLI renders
//! and the deployment gate consults.

use cornet_analysis::{Code, Diagnostic, Report, SourceRef};
use cornet_catalog::{builtin_catalog, Catalog};
use cornet_orchestrator::resilience::{CircuitBreaker, RetryPolicy};
use cornet_orchestrator::ResilienceSpec;
use cornet_planner::{analyze_campaigns, analyze_intent, Campaign, PlanIntent};
use cornet_types::json::{parse, JsonValue};
use cornet_types::{
    Attributes, CornetError, Inventory, NfType, NodeId, ParamType, Result, Schedule, Timeslot,
};
use cornet_verifier::{analyze_rules, ControlSelection, Expectation, KpiQuery, VerificationRule};
use cornet_workflow::{Designer, Workflow};
use std::collections::BTreeMap;
use std::time::Duration;

/// Everything one change ships with, assembled for static analysis.
pub struct MopBundle {
    /// Building-block catalog the workflows draw from.
    pub catalog: Catalog,
    /// Workflows the change executes.
    pub workflows: Vec<Workflow>,
    /// Scheduling intent, if the change is planner-scheduled.
    pub intent: Option<PlanIntent>,
    /// Inventory the intent and rules are resolved against.
    pub inventory: Inventory,
    /// Node scope of the change (defaults to the whole inventory).
    pub scope: Vec<NodeId>,
    /// Verification rules gating the change.
    pub rules: Vec<VerificationRule>,
    /// The data adapter's KPI names, when enumerable.
    pub known_kpis: Option<Vec<String>>,
    /// Retry/deadline/breaker configuration, when declared.
    pub resilience: Option<ResilienceSpec>,
    /// Already-planned campaigns over the same network.
    pub campaigns: Vec<Campaign>,
}

impl Default for MopBundle {
    fn default() -> Self {
        MopBundle {
            catalog: builtin_catalog(),
            workflows: Vec::new(),
            intent: None,
            inventory: Inventory::new(),
            scope: Vec::new(),
            rules: Vec::new(),
            known_kpis: None,
            resilience: None,
            campaigns: Vec::new(),
        }
    }
}

/// Run every analyzer in the workspace over a bundle, in dependency order
/// (structure before dataflow is internal to the workflow analyzer). Each
/// finding is stamped with the pass that produced it and the combined
/// report is sorted into the deterministic severity/code/anchor order.
pub fn check(b: &MopBundle) -> Report {
    let mut report = Report::new();
    let mut stamped = 0;
    // Name whatever the analyzer that just ran appended.
    let mut stamp = |report: &mut Report, pass: &str| {
        for d in &mut report.diagnostics[stamped..] {
            if d.pass.is_empty() {
                d.pass = pass.to_owned();
            }
        }
        stamped = report.diagnostics.len();
    };

    for wf in &b.workflows {
        report.merge(cornet_workflow::analyze(wf, &b.catalog));
    }
    stamp(&mut report, "workflow");

    if let Some(intent) = &b.intent {
        match analyze_intent(intent, &b.inventory, &b.scope) {
            Ok(r) => report.merge(r),
            Err(e) => report.push(Diagnostic::error(
                Code("CN0417"),
                SourceRef::Intent,
                format!("intent could not be analyzed: {e}"),
            )),
        }
    }
    stamp(&mut report, "intent-lint");

    analyze_campaigns(&b.campaigns, b.intent.as_ref(), &mut report);
    stamp(&mut report, "campaign-conflicts");

    crate::blast::analyze_interference(b, &mut report);
    stamp(&mut report, "interference");

    if let Some(spec) = &b.resilience {
        cornet_orchestrator::analyze_resilience(spec, &mut report);
    }
    stamp(&mut report, "resilience");

    for wf in &b.workflows {
        cornet_orchestrator::analyze_replay_safety(wf, &b.catalog, &mut report);
    }
    stamp(&mut report, "replay-safety");

    analyze_rules(&b.rules, &b.inventory, b.known_kpis.as_deref(), &mut report);
    stamp(&mut report, "verification-rules");

    report.sort();
    report
}

/// The check gate as a pre-deploy step: `Ok(report)` when the bundle may
/// deploy (warnings allowed), `Err(report)` when error diagnostics refuse
/// it. WAR deployment and the daemon's submit endpoint both consult this,
/// so a bundle rejected at the CLI is rejected identically over the API.
pub fn gate(bundle: &MopBundle) -> std::result::Result<Report, Report> {
    let report = check(bundle);
    if report.has_errors() {
        Err(report)
    } else {
        Ok(report)
    }
}

/// Parse a bundle specification from JSON text (see `examples/check/` for
/// the format). Malformed specs fail here, before any pass runs —
/// loading errors are not diagnostics.
pub fn load_bundle(text: &str) -> Result<MopBundle> {
    bundle_from_value(&parse(text)?)
}

fn bad(msg: impl Into<String>) -> CornetError {
    CornetError::InvalidInput(msg.into())
}

fn as_u32(v: &JsonValue, what: &str) -> Result<u32> {
    v.as_f64()
        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
        .map(|n| n as u32)
        .ok_or_else(|| bad(format!("{what} must be a non-negative integer")))
}

fn req_str<'a>(obj: &'a JsonValue, key: &str, what: &str) -> Result<&'a str> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad(format!("{what} needs a string '{key}' field")))
}

fn param_type(name: &str) -> Result<ParamType> {
    ParamType::parse(name).ok_or_else(|| bad(format!("unknown parameter type '{name}'")))
}

fn nf_type(name: &str) -> Result<NfType> {
    Ok(match name {
        "enodeb" | "enb" => NfType::ENodeB,
        "gnodeb" | "gnb" => NfType::GNodeB,
        "siad" => NfType::Siad,
        "transport_switch" => NfType::TransportSwitch,
        "core_router" => NfType::CoreRouter,
        "mme" => NfType::Mme,
        "sp_gateway" => NfType::SPGateway,
        "vce_router" => NfType::VceRouter,
        "v_gateway" => NfType::VGateway,
        "portal" => NfType::Portal,
        "vvig" => NfType::Vvig,
        "cpe" => NfType::Cpe,
        "vcom" => NfType::Vcom,
        "vrar" => NfType::Vrar,
        other => return Err(bad(format!("unknown nf_type '{other}'"))),
    })
}

/// A builtin workflow by its bundle-spec name.
fn builtin_workflow(name: &str, catalog: &Catalog) -> Result<Workflow> {
    use cornet_workflow::builtin as wf;
    Ok(match name {
        "software_upgrade" | "fig4" => wf::software_upgrade_workflow(catalog),
        "config_change" => wf::config_change_workflow(catalog),
        "vce_download" => wf::vce_download_workflow(catalog),
        "vce_activate" => wf::vce_activate_workflow(catalog),
        "sdwan_upgrade" => wf::sdwan_upgrade_workflow(catalog),
        "schedule_planning" => wf::schedule_planning_workflow(catalog),
        "impact_verification" => wf::impact_verification_workflow(catalog),
        other => return Err(bad(format!("unknown builtin workflow '{other}'"))),
    })
}

/// An inline workflow spec: declared inputs, a linear block sequence, and
/// an optional linear backout.
fn inline_workflow(spec: &JsonValue, catalog: &Catalog) -> Result<Workflow> {
    let name = req_str(spec, "name", "an inline workflow")?;
    let mut d = Designer::new(catalog, name);
    if let Some(inputs) = spec.get("inputs") {
        for (param, ty) in inputs
            .entries()
            .ok_or_else(|| bad("workflow 'inputs' must be an object"))?
        {
            let ty = ty
                .as_str()
                .ok_or_else(|| bad("parameter types are strings"))?;
            d.input(param, param_type(ty)?);
        }
    }
    let sequence = spec
        .get("sequence")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| bad(format!("workflow '{name}' needs a 'sequence' array")))?;
    let mut prev = d.start();
    for block in sequence {
        let block = block
            .as_str()
            .ok_or_else(|| bad("'sequence' entries are block names"))?;
        let t = d.task(block)?;
        d.connect(prev, t);
        prev = t;
    }
    let end = d.end();
    d.connect(prev, end);
    if let Some(backout) = spec.get("backout").and_then(JsonValue::as_array) {
        let blocks: Vec<&str> = backout.iter().filter_map(JsonValue::as_str).collect();
        if blocks.len() != backout.len() {
            return Err(bad("'backout' entries are block names"));
        }
        d.backout_sequence(&blocks)?;
    }
    Ok(d.build())
}

fn load_inventory(spec: &[JsonValue]) -> Result<Inventory> {
    let mut inv = Inventory::new();
    for rec in spec {
        let name = req_str(rec, "name", "an inventory record")?;
        let nf = match rec.get("nf_type").and_then(JsonValue::as_str) {
            Some(t) => nf_type(t)?,
            None => NfType::ENodeB,
        };
        let mut attrs = Attributes::new();
        if let Some(entries) = rec.get("attrs").and_then(JsonValue::entries) {
            for (k, v) in entries {
                match v {
                    JsonValue::String(s) => {
                        attrs.set(k.as_str(), s.as_str());
                    }
                    JsonValue::Number(n) => {
                        attrs.set(k.as_str(), *n);
                    }
                    other => {
                        return Err(bad(format!(
                            "attribute '{k}' must be a string or number, got {other:?}"
                        )))
                    }
                }
            }
        }
        inv.push(name, nf, attrs);
    }
    Ok(inv)
}

fn load_rule(spec: &JsonValue) -> Result<VerificationRule> {
    let name = req_str(spec, "name", "a verification rule")?;
    let mut kpis = Vec::new();
    for q in spec
        .get("kpis")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| bad(format!("rule '{name}' needs a 'kpis' array")))?
    {
        let kpi = req_str(q, "kpi", "a KPI query")?;
        let upward_good = !matches!(q.get("upward_good"), Some(JsonValue::Bool(false)));
        let expected = match q.get("expected").and_then(JsonValue::as_str) {
            None | Some("any") => Expectation::Any,
            Some("improve") => Expectation::Improve,
            Some("degrade") => Expectation::Degrade,
            Some("no_change") => Expectation::NoChange,
            Some(other) => return Err(bad(format!("unknown expectation '{other}'"))),
        };
        kpis.push(KpiQuery {
            kpi: kpi.into(),
            upward_good,
            expected,
            carrier: None,
        });
    }
    let mut rule = VerificationRule::standard(name, kpis);
    if let Some(attrs) = spec
        .get("location_attributes")
        .and_then(JsonValue::as_array)
    {
        rule.location_attributes = attrs
            .iter()
            .filter_map(JsonValue::as_str)
            .map(str::to_owned)
            .collect();
    }
    match spec.get("control") {
        None => {}
        Some(JsonValue::String(s)) => {
            rule.control = match s.as_str() {
                "first_tier" => ControlSelection::FirstTier,
                "second_tier" => ControlSelection::SecondTier,
                "second_minus_first" => ControlSelection::SecondMinusFirst,
                other => return Err(bad(format!("unknown control selection '{other}'"))),
            }
        }
        Some(obj) => {
            let attr = req_str(obj, "same_attribute", "a control object")?;
            rule.control = ControlSelection::SameAttribute(attr.into());
        }
    }
    if let Some(filter) = spec.get("control_attr_filter").and_then(JsonValue::as_str) {
        rule.control_attr_filter = Some(filter.into());
    }
    if let Some(ts) = spec.get("timescales").and_then(JsonValue::as_array) {
        rule.timescales = ts
            .iter()
            .map(|t| as_u32(t, "a timescale").map(|v| v as usize))
            .collect::<Result<_>>()?;
    }
    if let Some(alpha) = spec.get("alpha").and_then(JsonValue::as_f64) {
        rule.alpha = alpha;
    }
    if let Some(shift) = spec.get("min_relative_shift").and_then(JsonValue::as_f64) {
        rule.min_relative_shift = shift;
    }
    Ok(rule)
}

fn load_retry_policy(spec: &JsonValue) -> Result<RetryPolicy> {
    let mut p = RetryPolicy::default();
    if let Some(v) = spec.get("max_attempts") {
        p.max_attempts = as_u32(v, "'max_attempts'")?;
    }
    if let Some(v) = spec.get("base_backoff_ms") {
        p.base_backoff = Duration::from_millis(as_u32(v, "'base_backoff_ms'")? as u64);
    }
    if let Some(v) = spec.get("multiplier").and_then(JsonValue::as_f64) {
        p.multiplier = v;
    }
    if let Some(v) = spec.get("max_backoff_ms") {
        p.max_backoff = Duration::from_millis(as_u32(v, "'max_backoff_ms'")? as u64);
    }
    Ok(p)
}

fn load_resilience(spec: &JsonValue) -> Result<ResilienceSpec> {
    let mut res = ResilienceSpec::default();
    if let Some(entries) = spec.get("retry").and_then(JsonValue::entries) {
        for (block, policy) in entries {
            res.policies
                .insert(block.clone(), load_retry_policy(policy)?);
        }
    }
    if let Some(policy) = spec.get("default_retry") {
        res.default_policy = Some(load_retry_policy(policy)?);
    }
    if let Some(entries) = spec.get("deadlines_ms").and_then(JsonValue::entries) {
        for (block, ms) in entries {
            res.deadlines.insert(
                block.clone(),
                Duration::from_millis(as_u32(ms, "a deadline")? as u64),
            );
        }
    }
    if let Some(breaker) = spec.get("breaker") {
        let mut b = CircuitBreaker::default();
        if let Some(t) = breaker.get("failure_threshold").and_then(JsonValue::as_f64) {
            b.failure_threshold = t;
        }
        if let Some(m) = breaker.get("min_samples") {
            b.min_samples = as_u32(m, "'min_samples'")? as usize;
        }
        res.breaker = Some(b);
    }
    if let Some(n) = spec.get("planned_instances") {
        res.planned_instances = Some(as_u32(n, "'planned_instances'")? as usize);
    }
    Ok(res)
}

fn load_campaign(spec: &JsonValue) -> Result<Campaign> {
    let workflow = req_str(spec, "workflow", "a campaign")?;
    let mut assignments = BTreeMap::new();
    for pair in spec
        .get("assignments")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| {
            bad(format!(
                "campaign '{workflow}' needs an 'assignments' array"
            ))
        })?
    {
        let pair = pair
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| bad("campaign assignments are [node, slot] pairs"))?;
        assignments.insert(
            NodeId(as_u32(&pair[0], "a campaign node")?),
            Timeslot(as_u32(&pair[1], "a campaign slot")?),
        );
    }
    Ok(Campaign::new(
        workflow,
        Schedule {
            assignments,
            ..Default::default()
        },
    ))
}

/// Build a bundle from an already-parsed specification — for callers that
/// hold the [`JsonValue`] anyway (the daemon reads `name` and `scenario`
/// from the same submission); [`load_bundle`] is the text entry point.
pub fn bundle_from_value(root: &JsonValue) -> Result<MopBundle> {
    let mut bundle = MopBundle::default();
    if let Some(workflows) = root.get("workflows").and_then(JsonValue::as_array) {
        for spec in workflows {
            bundle.workflows.push(match spec {
                JsonValue::String(name) => builtin_workflow(name, &bundle.catalog)?,
                obj => inline_workflow(obj, &bundle.catalog)?,
            });
        }
    }
    if let Some(inv) = root.get("inventory").and_then(JsonValue::as_array) {
        bundle.inventory = load_inventory(inv)?;
    }
    bundle.scope = match root.get("scope").and_then(JsonValue::as_array) {
        Some(ids) => ids
            .iter()
            .map(|v| as_u32(v, "a scope node id").map(NodeId))
            .collect::<Result<_>>()?,
        None => bundle.inventory.ids().collect(),
    };
    if let Some(intent) = root.get("intent") {
        bundle.intent = Some(PlanIntent::from_value(intent)?);
    }
    if let Some(rules) = root.get("rules").and_then(JsonValue::as_array) {
        bundle.rules = rules.iter().map(load_rule).collect::<Result<_>>()?;
    }
    bundle.known_kpis = match root.get("known_kpis") {
        None => None,
        Some(JsonValue::String(s)) if s == "table5" => Some(
            cornet_netsim::KpiCatalog::table5()
                .kpis
                .into_iter()
                .map(|k| k.name)
                .collect(),
        ),
        Some(JsonValue::Array(names)) => Some(
            names
                .iter()
                .map(|n| {
                    n.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| bad("'known_kpis' entries are KPI names"))
                })
                .collect::<Result<_>>()?,
        ),
        Some(other) => {
            return Err(bad(format!(
                "'known_kpis' must be \"table5\" or an array, got {other:?}"
            )))
        }
    };
    if let Some(res) = root.get("resilience") {
        bundle.resilience = Some(load_resilience(res)?);
    }
    if let Some(campaigns) = root.get("campaigns").and_then(JsonValue::as_array) {
        bundle.campaigns = campaigns.iter().map(load_campaign).collect::<Result<_>>()?;
    }
    Ok(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_analysis::Severity;

    #[test]
    fn every_analyzer_runs_and_stamps_its_pass() {
        // The shipped defective bundle trips six analyzers; an intent whose
        // window cannot hold the scope trips the seventh.
        let mut bundle =
            load_bundle(include_str!("../../../examples/check/defective.json")).unwrap();
        bundle.intent = Some(
            PlanIntent::from_json(
                r#"{
                "scheduling_window": {"start": "2020-07-01 00:00:00",
                                      "end": "2020-07-01 23:59:00",
                                      "granularity": {"metric": "day", "value": 1}},
                "maintenance_window": {"start": "0:00", "end": "6:00"},
                "schedulable_attribute": "common_id",
                "conflict_attribute": "common_id",
                "constraints": [
                    {"name": "concurrency", "base_attribute": "common_id",
                     "operator": "<=", "granularity": {"metric": "day", "value": 1},
                     "default_capacity": 1}
                ]
            }"#,
            )
            .unwrap(),
        );
        let report = check(&bundle);
        let passes: std::collections::BTreeSet<&str> =
            report.iter().map(|d| d.pass.as_str()).collect();
        assert_eq!(
            passes.into_iter().collect::<Vec<_>>(),
            vec![
                "campaign-conflicts",
                "intent-lint",
                "interference",
                "replay-safety",
                "resilience",
                "verification-rules",
                "workflow"
            ],
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn empty_bundle_is_clean() {
        assert!(check(&MopBundle::default()).is_clean());
    }

    #[test]
    fn builtin_workflows_by_name_pass_the_gate() {
        let bundle = load_bundle(r#"{"workflows": ["fig4", "config_change"]}"#).unwrap();
        assert_eq!(bundle.workflows.len(), 2);
        let report = check(&bundle);
        assert!(!report.has_errors(), "{}", report.render_text());
    }

    #[test]
    fn inline_workflow_dataflow_defect_surfaces_through_check() {
        // software_upgrade consumes 'version', which nothing provides.
        let text = r#"{
            "workflows": [{
                "name": "underfed",
                "inputs": {"node": "string"},
                "sequence": ["health_check", "software_upgrade"]
            }]
        }"#;
        let report = check(&load_bundle(text).unwrap());
        assert!(report.has_errors(), "{}", report.render_text());
        let d = report
            .iter()
            .find(|d| d.code == Code("CN0201"))
            .expect("never-produced input");
        assert_eq!(d.pass, "workflow");
        assert!(d.message.contains("version"), "{}", d.message);
    }

    #[test]
    fn multi_pass_defects_combine_into_one_sorted_report() {
        let text = r#"{
            "resilience": {
                "breaker": {"failure_threshold": 1.5, "min_samples": 50},
                "planned_instances": 10
            },
            "rules": [{"name": "hollow", "kpis": []}],
            "campaigns": [
                {"workflow": "a", "assignments": [[1, 2]]},
                {"workflow": "b", "assignments": [[1, 2]]}
            ]
        }"#;
        let report = check(&load_bundle(text).unwrap());
        let codes: Vec<&str> = report.iter().map(|d| d.code.0).collect();
        for code in ["CN0303", "CN0305", "CN0416", "CN0501"] {
            assert!(codes.contains(&code), "missing {code} in {codes:?}");
        }
        // Passes stamped, errors first.
        assert!(report.iter().all(|d| !d.pass.is_empty()));
        assert!(report.diagnostics[0].severity == Severity::Error);
    }

    #[test]
    fn unknown_builtin_workflow_is_a_load_error_not_a_diagnostic() {
        assert!(load_bundle(r#"{"workflows": ["no_such_flow"]}"#).is_err());
    }

    #[test]
    fn known_kpis_table5_feeds_the_rule_check() {
        let text = r#"{
            "known_kpis": "table5",
            "rules": [{"name": "r", "kpis": [{"kpi": "scorecard_kpi_000"},
                                             {"kpi": "bogus_kpi"}]}]
        }"#;
        let report = check(&load_bundle(text).unwrap());
        assert_eq!(report.error_count(), 1, "{}", report.render_text());
        assert_eq!(report.diagnostics[0].code, Code("CN0502"));
        assert!(report.diagnostics[0].message.contains("bogus_kpi"));
    }
}
