//! Canonical change workflows from the paper.
//!
//! * [`software_upgrade_workflow`] — Fig. 4: health check → upgrade →
//!   pre/post comparison → roll-back on failure.
//! * [`config_change_workflow`] — the same skeleton over `config_change`.
//! * [`vce_download_workflow`] / [`vce_activate_workflow`] — the §5.1
//!   two-workflow vCE pattern: a non-disruptive download/install pass,
//!   then a disruptive health-check/reboot/verify pass days later.
//! * [`sdwan_upgrade_workflow`] — §5.1's single three-block workflow
//!   (pre-check, upgrade with reboot, post-check).

use crate::designer::Designer;
use crate::graph::Workflow;
use cornet_catalog::Catalog;
use cornet_types::ParamType;

/// Fig. 4's software upgrade workflow.
///
/// Input: `node`, `software_version`. If the health check fails the
/// workflow ends; if the pre/post comparison fails the software is rolled
/// back.
pub fn software_upgrade_workflow(catalog: &Catalog) -> Workflow {
    let mut d = Designer::new(catalog, "software_upgrade");
    d.input("node", ParamType::String);
    d.input("software_version", ParamType::String);
    d.output("passed", ParamType::Bool);
    let start = d.start();
    let hc = d.task("health_check").expect("catalog has health_check");
    let healthy = d.decision("healthy");
    let up = d
        .task("software_upgrade")
        .expect("catalog has software_upgrade");
    let cmp = d
        .task("pre_post_comparison")
        .expect("catalog has pre_post_comparison");
    let passed = d.decision("passed");
    let rb = d.task("roll_back").expect("catalog has roll_back");
    let end_ok = d.end();
    let end_unhealthy = d.end();
    d.connect(start, hc)
        .connect(hc, healthy)
        .connect_if(healthy, up, true)
        .connect_if(healthy, end_unhealthy, false)
        .connect(up, cmp)
        .connect(cmp, passed)
        .connect_if(passed, end_ok, true)
        .connect_if(passed, rb, false)
        .connect(rb, end_ok);
    d.build()
}

/// Configuration-change variant of Fig. 4 (config snapshot semantics come
/// from `config_change`'s `previous_config` output feeding nothing — the
/// roll-back here is a software roll-back is not applicable, so failure
/// simply ends the workflow with `passed = false`).
pub fn config_change_workflow(catalog: &Catalog) -> Workflow {
    let mut d = Designer::new(catalog, "config_change");
    d.input("node", ParamType::String);
    d.input("config", ParamType::Map);
    d.output("passed", ParamType::Bool);
    let start = d.start();
    let hc = d.task("health_check").expect("catalog has health_check");
    let healthy = d.decision("healthy");
    let cc = d.task("config_change").expect("catalog has config_change");
    let cmp = d
        .task("pre_post_comparison")
        .expect("catalog has pre_post_comparison");
    let passed = d.decision("passed");
    let end_ok = d.end();
    let end_fail = d.end();
    d.connect(start, hc)
        .connect(hc, healthy)
        .connect_if(healthy, cc, true)
        .connect_if(healthy, end_fail, false)
        .connect(cc, cmp)
        .connect(cmp, passed)
        .connect_if(passed, end_ok, true)
        .connect_if(passed, end_fail, false);
    d.build()
}

/// First vCE workflow (§5.1): software download and installation — the
/// time-consuming, non-disruptive step, run across all vCE routers first.
pub fn vce_download_workflow(catalog: &Catalog) -> Workflow {
    let mut d = Designer::new(catalog, "vce_download_install");
    d.input("node", ParamType::String);
    d.input("software_version", ParamType::String);
    d.output("upgraded", ParamType::Bool);
    let start = d.start();
    let hc = d.task("health_check").expect("catalog has health_check");
    let healthy = d.decision("healthy");
    let up = d
        .task("software_upgrade")
        .expect("catalog has software_upgrade");
    let end_ok = d.end();
    let end_skip = d.end();
    d.connect(start, hc)
        .connect(hc, healthy)
        .connect_if(healthy, up, true)
        .connect_if(healthy, end_skip, false)
        .connect(up, end_ok);
    d.build()
}

/// Second vCE workflow (§5.1): health check, traffic redirect, reboot
/// (modeled by `traffic_restore` after verification) and post checks to
/// validate vCE and service availability, with roll-back on failure.
pub fn vce_activate_workflow(catalog: &Catalog) -> Workflow {
    let mut d = Designer::new(catalog, "vce_activate_verify");
    d.input("node", ParamType::String);
    d.input("software_version", ParamType::String);
    d.input("previous_version", ParamType::String);
    d.output("passed", ParamType::Bool);
    let start = d.start();
    let hc = d.task("health_check").expect("catalog has health_check");
    let healthy = d.decision("healthy");
    let redirect = d
        .task("traffic_redirect")
        .expect("catalog has traffic_redirect");
    let cmp = d
        .task("pre_post_comparison")
        .expect("catalog has pre_post_comparison");
    let passed = d.decision("passed");
    let restore = d
        .task("traffic_restore")
        .expect("catalog has traffic_restore");
    let rb = d.task("roll_back").expect("catalog has roll_back");
    let end_ok = d.end();
    let end_unhealthy = d.end();
    d.connect(start, hc)
        .connect(hc, healthy)
        .connect_if(healthy, redirect, true)
        .connect_if(healthy, end_unhealthy, false)
        .connect(redirect, cmp)
        .connect(cmp, passed)
        .connect_if(passed, restore, true)
        .connect_if(passed, rb, false)
        .connect(rb, restore)
        .connect(restore, end_ok);
    d.build()
}

/// SDWAN gateway/portal upgrade (§5.1): "pre-check, software upgrade with
/// reboot and post-check", one workflow for both network functions.
pub fn sdwan_upgrade_workflow(catalog: &Catalog) -> Workflow {
    let mut d = Designer::new(catalog, "sdwan_upgrade");
    d.input("node", ParamType::String);
    d.input("software_version", ParamType::String);
    d.output("passed", ParamType::Bool);
    let start = d.start();
    let pre = d.task("health_check").expect("catalog has health_check");
    let healthy = d.decision("healthy");
    let up = d
        .task("software_upgrade")
        .expect("catalog has software_upgrade");
    let post = d
        .task("pre_post_comparison")
        .expect("catalog has pre_post_comparison");
    let passed = d.decision("passed");
    let rb = d.task("roll_back").expect("catalog has roll_back");
    let end_ok = d.end();
    let end_skip = d.end();
    d.connect(start, pre)
        .connect(pre, healthy)
        .connect_if(healthy, up, true)
        .connect_if(healthy, end_skip, false)
        .connect(up, post)
        .connect(post, passed)
        .connect_if(passed, end_ok, true)
        .connect_if(passed, rb, false)
        .connect(rb, end_ok);
    d.build()
}

/// The NF-agnostic schedule-planning workflow of §4.2: detect conflicts,
/// extract topology and inventory, translate the intent into a model, and
/// run the optimization solver — one workflow reused across every network
/// function and constraint composition.
pub fn schedule_planning_workflow(catalog: &Catalog) -> Workflow {
    let mut d = Designer::new(catalog, "schedule_planning");
    d.input("nodes", ParamType::List);
    d.input("intent", ParamType::Map);
    d.output("schedule", ParamType::Map);
    d.output("makespan", ParamType::Int);
    let start = d.start();
    let conflicts = d
        .task("detect_conflicts")
        .expect("catalog has detect_conflicts");
    let topo = d
        .task("extract_topology")
        .expect("catalog has extract_topology");
    let inv = d
        .task("extract_inventory")
        .expect("catalog has extract_inventory");
    let translate = d
        .task("model_translation")
        .expect("catalog has model_translation");
    let solve = d
        .task("optimization_solver")
        .expect("catalog has optimization_solver");
    let end = d.end();
    d.connect(start, conflicts)
        .connect(conflicts, topo)
        .connect(topo, inv)
        .connect(inv, translate)
        .connect(translate, solve)
        .connect(solve, end);
    d.build()
}

/// The NF-agnostic impact-verification workflow of §4.3: scope the change,
/// extract KPI/topology/inventory data, aggregate across location
/// attributes, and run the statistical impact detection.
pub fn impact_verification_workflow(catalog: &Catalog) -> Workflow {
    let mut d = Designer::new(catalog, "impact_verification");
    d.input("tickets", ParamType::List);
    d.input("kpi_names", ParamType::List);
    d.output("impacts", ParamType::List);
    d.output("verdict", ParamType::String);
    let start = d.start();
    let scope = d.task("change_scope").expect("catalog has change_scope");
    let kpi = d.task("extract_kpi").expect("catalog has extract_kpi");
    let topo = d
        .task("extract_topology_verify")
        .expect("catalog has extract_topology_verify");
    let inv = d
        .task("extract_inventory_verify")
        .expect("catalog has extract_inventory_verify");
    let agg = d.task("aggregate_kpi").expect("catalog has aggregate_kpi");
    let detect = d
        .task("impact_detection")
        .expect("catalog has impact_detection");
    let end = d.end();
    d.connect(start, scope)
        .connect(scope, kpi)
        .connect(kpi, topo)
        .connect(topo, inv)
        .connect(inv, agg)
        .connect(agg, detect)
        .connect(detect, end);
    d.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::analyze;
    use cornet_catalog::builtin_catalog;

    #[test]
    fn all_builtin_workflows_validate() {
        let cat = builtin_catalog();
        for (name, wf) in [
            ("fig4", software_upgrade_workflow(&cat)),
            ("config", config_change_workflow(&cat)),
            ("vce1", vce_download_workflow(&cat)),
            ("vce2", vce_activate_workflow(&cat)),
            ("sdwan", sdwan_upgrade_workflow(&cat)),
            ("planning", schedule_planning_workflow(&cat)),
            ("verification", impact_verification_workflow(&cat)),
        ] {
            let rep = analyze(&wf, &cat);
            assert!(!rep.has_errors(), "{name}: {}", rep.render_text());
        }
    }

    #[test]
    fn fig4_has_four_blocks_and_two_decisions() {
        let cat = builtin_catalog();
        let wf = software_upgrade_workflow(&cat);
        assert_eq!(wf.blocks().len(), 4);
        let decisions = wf
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, crate::graph::NodeKind::Decision { .. }))
            .count();
        assert_eq!(decisions, 2);
    }

    #[test]
    fn vce_pattern_is_two_distinct_workflows() {
        let cat = builtin_catalog();
        let w1 = vce_download_workflow(&cat);
        let w2 = vce_activate_workflow(&cat);
        assert_ne!(w1.name, w2.name);
        assert!(w1.blocks().contains(&"software_upgrade"));
        assert!(
            !w2.blocks().contains(&"software_upgrade"),
            "activation pass does not install"
        );
        assert!(w2.blocks().contains(&"traffic_redirect"));
    }
}
