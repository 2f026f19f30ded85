//! The `Cornet` facade — Fig. 3's unified experience.
//!
//! One object holding the catalog, the network (inventory + topology),
//! and the executor registry, with entry points into the four phases:
//! design (workflows), plan (schedules), execute (dispatch), verify
//! (impact). Examples and integration tests drive CORNET through this.

use cornet_catalog::{builtin_catalog, Catalog};
use cornet_obs::Tracer;
use cornet_orchestrator::{DispatchReport, Dispatcher, ExecutorRegistry, GlobalState};
use cornet_planner::{plan, PlanIntent, PlanOptions, PlanResult};
use cornet_types::{Inventory, NodeId, Result, Schedule, Topology};
use cornet_verifier::{
    verify_rules_traced, ChangeScope, DataAdapter, VerificationReport, VerificationRule,
};
use cornet_workflow::{WarArtifact, Workflow};

/// The composition framework, assembled.
pub struct Cornet {
    /// Building-block catalog (Table 2 plus any user additions).
    pub catalog: Catalog,
    /// Inventory of network-function instances.
    pub inventory: Inventory,
    /// Network topology.
    pub topology: Topology,
    /// Executor registry used at dispatch time.
    pub registry: ExecutorRegistry,
    /// Tracer shared across every phase driven through the facade (noop
    /// by default; see [`Cornet::with_tracer`]).
    pub tracer: Tracer,
}

impl Cornet {
    /// Assemble CORNET over a network with the built-in catalog.
    pub fn new(inventory: Inventory, topology: Topology, registry: ExecutorRegistry) -> Self {
        Cornet {
            catalog: builtin_catalog(),
            inventory,
            topology,
            registry,
            tracer: Tracer::noop(),
        }
    }

    /// Attach a tracer: plan/dispatch/verify runs driven through the
    /// facade record their spans and metrics on it.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Package a validated workflow into a deployable WAR artifact.
    pub fn deploy_workflow(&self, wf: &Workflow) -> Result<WarArtifact> {
        WarArtifact::package(wf, &self.catalog)
    }

    /// Discover a change schedule from a high-level JSON intent.
    pub fn plan_from_json(
        &self,
        intent_json: &str,
        nodes: &[NodeId],
        options: &PlanOptions,
    ) -> Result<PlanResult> {
        let intent = PlanIntent::from_json(intent_json)?;
        self.plan(&intent, nodes, options)
    }

    /// Discover a change schedule from a parsed intent.
    pub fn plan(
        &self,
        intent: &PlanIntent,
        nodes: &[NodeId],
        options: &PlanOptions,
    ) -> Result<PlanResult> {
        // The facade tracer backs any plan that didn't bring its own.
        if self.tracer.is_enabled() && !options.tracer.is_enabled() {
            let mut traced = options.clone();
            traced.tracer = self.tracer.clone();
            return plan(intent, &self.inventory, &self.topology, nodes, &traced);
        }
        plan(intent, &self.inventory, &self.topology, nodes, options)
    }

    /// Dispatch a schedule through a deployed workflow.
    pub fn dispatch(
        &self,
        war: &WarArtifact,
        schedule: &Schedule,
        concurrency: usize,
        inputs_for: impl Fn(NodeId) -> GlobalState + Sync,
    ) -> Result<DispatchReport> {
        Dispatcher::new(war.clone(), self.registry.clone(), concurrency)?
            .with_tracer(self.tracer.clone())
            .run(schedule, inputs_for)
    }

    /// Verify the impact of executed changes.
    pub fn verify(
        &self,
        adapter: &dyn DataAdapter,
        rule: &VerificationRule,
        scope: &ChangeScope,
    ) -> Result<VerificationReport> {
        verify_rules_traced(
            adapter,
            std::slice::from_ref(rule),
            scope,
            &self.inventory,
            &self.topology,
            &self.tracer,
            None,
        )
        .map(|mut reports| reports.remove(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executors::testbed_registry;
    use cornet_netsim::{Network, Testbed, TestbedConfig};
    use cornet_types::ParamValue;
    use cornet_workflow::builtin::software_upgrade_workflow;

    /// End-to-end smoke: generate a network, plan, deploy, dispatch,
    /// check testbed state. (The full §4 experiments live in the
    /// workspace-level integration tests.)
    #[test]
    fn design_plan_execute_cycle() {
        let net = Network::generate_cloud(1, 6, 1);
        let tb = Testbed::new(TestbedConfig::default());
        let vces: Vec<NodeId> = net
            .inventory
            .iter()
            .filter(|r| r.nf_type == cornet_types::NfType::VceRouter)
            .map(|r| {
                tb.instantiate(&r.name, r.nf_type, "16.9");
                r.id
            })
            .collect();
        let cornet = Cornet::new(
            net.inventory.clone(),
            net.topology.clone(),
            testbed_registry(tb.clone()),
        );

        // Design + deploy.
        let wf = software_upgrade_workflow(&cornet.catalog);
        assert!(!cornet_workflow::analyze(&wf, &cornet.catalog).has_errors());
        let war = cornet.deploy_workflow(&wf).unwrap();

        // Plan: 6 vCEs, 2 per night.
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
            .unwrap();
        assert_eq!(result.schedule.scheduled_count(), 6);
        assert_eq!(result.makespan(), 3);

        // Execute.
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
            .unwrap();
        assert_eq!(report.completed(), 6);

        // §4.1's check: versions actually moved.
        for &v in &vces {
            let name = &cornet.inventory.record(v).name;
            assert_eq!(tb.state(name).unwrap().sw_version, "17.3");
        }
    }

    /// Every backend choice is reachable through the facade — the §3.3
    /// "many optimizers behind one intent" seam, end to end.
    #[test]
    fn facade_exposes_every_backend() {
        use cornet_planner::BackendChoice;

        let net = Network::generate_cloud(1, 6, 1);
        let tb = Testbed::new(TestbedConfig::default());
        let vces: Vec<NodeId> = net
            .inventory
            .iter()
            .filter(|r| r.nf_type == cornet_types::NfType::VceRouter)
            .map(|r| r.id)
            .collect();
        let cornet = Cornet::new(
            net.inventory.clone(),
            net.topology.clone(),
            testbed_registry(tb),
        );
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
        for backend in [
            BackendChoice::Exact,
            BackendChoice::Heuristic,
            BackendChoice::Portfolio,
        ] {
            let options = PlanOptions {
                backend,
                ..Default::default()
            };
            let result = cornet.plan_from_json(intent, &vces, &options).unwrap();
            assert_eq!(
                result.schedule.scheduled_count(),
                6,
                "{backend:?} schedules all nodes"
            );
            assert_eq!(result.backend, backend);
            assert!(!result.backend_runs.is_empty());
        }
    }
}
