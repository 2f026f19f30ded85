//! The staged roll-out controller — §2.1's change-management flow as one
//! reusable composition.
//!
//! "The roll out is done in stages. … the change is trialed on a small
//! part of the production network (the First Field Application). A
//! pre/post comparison … is conducted to make a go/no-go decision for a
//! network-wide deployment. … If there is any unexpected performance
//! degradation, a decision is made to halt the roll-out."
//!
//! [`staged_rollout`] runs exactly that: execute the FFA slice, verify it,
//! stop unless certified, then run the network-wide schedule with the
//! verifier consulted as a go/no-go gate between slots and the optional
//! circuit breaker consulted on every completion inside them.

use crate::cornet::Cornet;
use cornet_orchestrator::resilience::{BreakerTrip, CircuitBreaker};
use cornet_orchestrator::{DispatchReport, GlobalState};
use cornet_types::{NodeId, Result, Schedule, Timeslot};
use cornet_verifier::{verify_rule, ChangeScope, DataAdapter, GoNoGo, VerificationRule};
use cornet_workflow::WarArtifact;

/// How a staged roll-out ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RolloutOutcome {
    /// FFA verification failed; the network-wide phase never started.
    NotCertified,
    /// The network-wide phase halted mid-way: a failed gate check after
    /// a slot, or a breaker trip inside one.
    Halted {
        /// Slot the gate refused to go beyond, or the breaker tripped in.
        after_slot: u32,
    },
    /// Every slot completed with the gate green throughout.
    Completed,
}

/// Full record of one staged roll-out.
#[derive(Debug)]
pub struct RolloutReport {
    /// FFA execution report.
    pub ffa: DispatchReport,
    /// FFA verification decision.
    pub ffa_decision: GoNoGo,
    /// Network-wide execution report (empty when not certified).
    pub network: DispatchReport,
    /// Final outcome.
    pub outcome: RolloutOutcome,
    /// Set when the halt came from the circuit breaker rather than the
    /// KPI verifier — carries the offending block and its failure rate.
    pub breaker_trip: Option<BreakerTrip>,
}

/// Configuration of the staged roll-out.
pub struct RolloutPlan<'a> {
    /// Deployed workflow to execute per node.
    pub war: &'a WarArtifact,
    /// FFA slice: nodes and their slots (typically a handful of nodes in
    /// slot 1).
    pub ffa: Schedule,
    /// Network-wide schedule (the FFA nodes excluded).
    pub network: Schedule,
    /// Verification rule for both the FFA gate and the in-flight gates.
    pub rule: &'a VerificationRule,
    /// Instances run concurrently per wave.
    pub concurrency: usize,
    /// Consult the verifier every `gate_every` slots during the
    /// network-wide phase (1 = every slot).
    pub gate_every: u32,
    /// Optional auto-halt circuit breaker: consulted on *every instance
    /// completion* (execution fall-out is visible immediately, unlike KPI
    /// shifts) and trips on excessive per-block failure rates; instances
    /// in flight when it trips land in `network.drained`.
    pub breaker: Option<CircuitBreaker>,
}

/// Derive a change scope from executed instances: every *completed* node,
/// stamped with its slot's execution time.
fn scope_of(report: &DispatchReport, slot_minutes: impl Fn(Timeslot) -> u64) -> ChangeScope {
    let mut scope = ChangeScope::default();
    for i in &report.instances {
        if i.status == cornet_orchestrator::InstanceStatus::Completed {
            scope.changes.insert(i.node, slot_minutes(i.slot));
        }
    }
    scope
}

/// Run the §2.1 staged roll-out.
///
/// `slot_minutes` maps a timeslot to the execution minute used for KPI
/// alignment (usually `window.slot_start(slot).minutes() + offset`);
/// `inputs_for` supplies workflow inputs per node.
pub fn staged_rollout(
    cornet: &Cornet,
    plan: RolloutPlan<'_>,
    adapter: &(dyn DataAdapter + Sync),
    slot_minutes: impl Fn(Timeslot) -> u64 + Copy,
    inputs_for: impl Fn(NodeId) -> GlobalState + Sync,
) -> Result<RolloutReport> {
    // --- Phase 1: FFA.
    let ffa_report = cornet.dispatch(plan.war, &plan.ffa, plan.concurrency, &inputs_for)?;
    let ffa_scope = scope_of(&ffa_report, slot_minutes);
    let ffa_decision = if ffa_scope.changes.is_empty() {
        GoNoGo::NoGo
    } else {
        verify_rule(
            adapter,
            plan.rule,
            &ffa_scope,
            &cornet.inventory,
            &cornet.topology,
        )?
        .decision
    };
    if ffa_decision == GoNoGo::NoGo {
        return Ok(RolloutReport {
            ffa: ffa_report,
            ffa_decision,
            network: DispatchReport::default(),
            outcome: RolloutOutcome::NotCertified,
            breaker_trip: None,
        });
    }

    // --- Phase 2: network-wide with in-flight gates.
    let gate_every = plan.gate_every.max(1);
    let dispatcher = cornet_orchestrator::Dispatcher::new(
        plan.war.clone(),
        cornet.registry.clone(),
        plan.concurrency,
    )?;
    let mut slots_executed = 0u32;
    // The circuit breaker rides inside the dispatcher's loop: execution
    // fall-out is visible on every completion, no KPI lag involved, so a
    // trip halts mid-slot. The gate keeps what only it can do — the KPI
    // verifier, between slots.
    let network = dispatcher.run_gated(
        &plan.network,
        &inputs_for,
        plan.breaker.as_ref(),
        |_slot, so_far| {
            // Count *executed* slots, not slot numbers — sparse schedules
            // (excluded holidays) must still be verified every Nth slot.
            slots_executed += 1;
            if !slots_executed.is_multiple_of(gate_every) {
                return true;
            }
            // Verify everything changed so far (FFA + network slots).
            let mut scope = scope_of(so_far, slot_minutes);
            for (n, m) in &ffa_scope.changes {
                scope.changes.insert(*n, *m);
            }
            verify_rule(
                adapter,
                plan.rule,
                &scope,
                &cornet.inventory,
                &cornet.topology,
            )
            .map(|r| r.decision == GoNoGo::Go)
            .unwrap_or(true) // data problems alert, but don't halt blindly
        },
    )?;

    let outcome = match network.halted {
        Some(slot) => RolloutOutcome::Halted { after_slot: slot.0 },
        None => RolloutOutcome::Completed,
    };
    Ok(RolloutReport {
        ffa: ffa_report,
        ffa_decision,
        network: network.report,
        outcome,
        breaker_trip: network.trip,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executors::testbed_registry;
    use cornet_netsim::{
        ImpactKind, InjectedImpact, KpiGenerator, Network, NetworkConfig, Testbed, TestbedConfig,
    };
    use cornet_types::{NfType, ParamValue};
    use cornet_verifier::{ClosureAdapter, ControlSelection, Expectation, KpiQuery};
    use cornet_workflow::builtin::software_upgrade_workflow;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Shared fixture: 16 eNodeBs, testbed-backed registry, 2 FFA nodes
    /// in slot 1, the rest over slots 1..4 of the network phase.
    struct Fixture {
        cornet: Cornet,
        war: WarArtifact,
        ffa: Schedule,
        network: Schedule,
        enbs: Vec<NodeId>,
        testbed: Testbed,
    }

    fn fixture() -> Fixture {
        let net = Network::generate_ran(&NetworkConfig {
            markets_per_tz: 1,
            tacs_per_market: 1,
            usids_per_tac: 4,
            gnb_probability: 0.0,
            ..Default::default()
        });
        let enbs = net.nodes_of_type(NfType::ENodeB);
        let testbed = Testbed::new(TestbedConfig::default());
        for &n in &enbs {
            let rec = net.inventory.record(n);
            testbed.instantiate(&rec.name, rec.nf_type, "19.3");
        }
        let cornet = Cornet::new(
            net.inventory.clone(),
            net.topology.clone(),
            testbed_registry(testbed.clone()),
        );
        let war = cornet
            .deploy_workflow(&software_upgrade_workflow(&cornet.catalog))
            .unwrap();
        let mut ffa = Schedule::default();
        ffa.assignments.insert(enbs[0], Timeslot(1));
        ffa.assignments.insert(enbs[1], Timeslot(1));
        let mut network = Schedule::default();
        for (i, &n) in enbs[2..].iter().enumerate() {
            network.assignments.insert(n, Timeslot(i as u32 / 4 + 1));
        }
        Fixture {
            cornet,
            war,
            ffa,
            network,
            enbs,
            testbed,
        }
    }

    fn adapter_with_magnitude(study: Vec<NodeId>, magnitude: f64) -> impl DataAdapter {
        let impacts: Vec<InjectedImpact> = study
            .iter()
            .map(|&n| InjectedImpact {
                node: n,
                kpi: "thr".into(),
                carrier: None,
                at_minute: 10_000,
                kind: ImpactKind::LevelShift,
                magnitude,
            })
            .collect();
        let gen = KpiGenerator {
            seed: 77,
            noise: 0.02,
            ..Default::default()
        };
        ClosureAdapter(move |node: NodeId, kpi: &str, carrier: Option<usize>| {
            Some(gen.series(node, kpi, carrier, 500, &impacts))
        })
    }

    fn rule(control: Vec<NodeId>) -> VerificationRule {
        VerificationRule {
            name: "rollout".into(),
            kpis: vec![KpiQuery::expecting("thr", true, Expectation::Improve)],
            location_attributes: vec![],
            control: ControlSelection::Explicit(control),
            control_attr_filter: None,
            timescales: vec![1, 24],
            alpha: 0.01,
            min_relative_shift: 0.01,
        }
    }

    fn inputs(cornet: &Cornet) -> impl Fn(NodeId) -> GlobalState + Sync + '_ {
        move |node| {
            let mut g = GlobalState::new();
            g.insert(
                "node".into(),
                ParamValue::from(cornet.inventory.record(node).name.clone()),
            );
            g.insert("software_version".into(), ParamValue::from("20.1"));
            g
        }
    }

    #[test]
    fn good_change_completes_network_wide() {
        let f = fixture();
        let controls = f
            .cornet
            .inventory
            .iter()
            .filter(|r| r.nf_type == NfType::Siad)
            .map(|r| r.id)
            .collect::<Vec<_>>();
        let adapter = adapter_with_magnitude(f.enbs.clone(), 0.2);
        let r = rule(controls);
        let report = staged_rollout(
            &f.cornet,
            RolloutPlan {
                war: &f.war,
                ffa: f.ffa.clone(),
                network: f.network.clone(),
                rule: &r,
                concurrency: 4,
                gate_every: 1,
                breaker: None,
            },
            &adapter,
            |_slot| 10_000,
            inputs(&f.cornet),
        )
        .unwrap();
        assert_eq!(report.ffa_decision, GoNoGo::Go);
        assert_eq!(report.outcome, RolloutOutcome::Completed);
        assert_eq!(report.network.completed(), 14);
        // Everything upgraded.
        for &n in &f.enbs {
            let name = &f.cornet.inventory.record(n).name;
            assert_eq!(f.testbed.state(name).unwrap().sw_version, "20.1");
        }
    }

    #[test]
    fn bad_change_is_not_certified_at_ffa() {
        let f = fixture();
        let controls = f
            .cornet
            .inventory
            .iter()
            .filter(|r| r.nf_type == NfType::Siad)
            .map(|r| r.id)
            .collect::<Vec<_>>();
        // Degradation everywhere the change lands.
        let adapter = adapter_with_magnitude(f.enbs.clone(), -0.3);
        let r = rule(controls);
        let report = staged_rollout(
            &f.cornet,
            RolloutPlan {
                war: &f.war,
                ffa: f.ffa.clone(),
                network: f.network.clone(),
                rule: &r,
                concurrency: 4,
                gate_every: 1,
                breaker: None,
            },
            &adapter,
            |_slot| 10_000,
            inputs(&f.cornet),
        )
        .unwrap();
        assert_eq!(report.ffa_decision, GoNoGo::NoGo);
        assert_eq!(report.outcome, RolloutOutcome::NotCertified);
        assert_eq!(report.network.instances.len(), 0, "network phase never ran");
        // Only the 2 FFA nodes were touched.
        let upgraded = f
            .enbs
            .iter()
            .filter(|&&n| {
                let name = &f.cornet.inventory.record(n).name;
                f.testbed.state(name).unwrap().sw_version == "20.1"
            })
            .count();
        assert_eq!(upgraded, 2);
    }

    #[test]
    fn latent_degradation_halts_mid_rollout() {
        // FFA nodes improve (the trial looks clean) but the wider
        // population degrades — "the FFA change trials can show the
        // expected performance impacts, but network-wide roll-out can show
        // unexpected impacts" (§2.2).
        let f = fixture();
        let controls = f
            .cornet
            .inventory
            .iter()
            .filter(|r| r.nf_type == NfType::Siad)
            .map(|r| r.id)
            .collect::<Vec<_>>();
        let ffa_nodes = [f.enbs[0], f.enbs[1]];
        let impacts: Vec<InjectedImpact> = f
            .enbs
            .iter()
            .map(|&n| InjectedImpact {
                node: n,
                kpi: "thr".into(),
                carrier: None,
                at_minute: 10_000,
                kind: ImpactKind::LevelShift,
                magnitude: if ffa_nodes.contains(&n) { 0.2 } else { -0.3 },
            })
            .collect();
        let gen = KpiGenerator {
            seed: 78,
            noise: 0.02,
            ..Default::default()
        };
        let adapter = ClosureAdapter(move |node: NodeId, kpi: &str, carrier: Option<usize>| {
            Some(gen.series(node, kpi, carrier, 500, &impacts))
        });
        let r = rule(controls);
        let report = staged_rollout(
            &f.cornet,
            RolloutPlan {
                war: &f.war,
                ffa: f.ffa.clone(),
                network: f.network.clone(),
                rule: &r,
                concurrency: 4,
                gate_every: 1,
                breaker: None,
            },
            &adapter,
            |_slot| 10_000,
            inputs(&f.cornet),
        )
        .unwrap();
        assert_eq!(report.ffa_decision, GoNoGo::Go, "the trial looked clean");
        assert_eq!(
            report.outcome,
            RolloutOutcome::Halted { after_slot: 1 },
            "first gated check after network slot 1 catches the degradation"
        );
        assert!(report.network.instances.len() < 14, "halt spared the tail");
        assert!(report.breaker_trip.is_none(), "no breaker configured");
    }

    /// The fixture's CORNET with `software_upgrade` failing permanently on
    /// every non-FFA node, the WAR deployed on it, and a count of those
    /// failed attempts.
    fn failing_outside_ffa(f: &Fixture) -> (Cornet, WarArtifact, Arc<AtomicUsize>) {
        let ffa_names: Vec<String> = [f.enbs[0], f.enbs[1]]
            .iter()
            .map(|&n| f.cornet.inventory.record(n).name.clone())
            .collect();
        let mut cornet = Cornet::new(
            f.cornet.inventory.clone(),
            f.cornet.topology.clone(),
            testbed_registry(f.testbed.clone()),
        );
        let rejected = Arc::new(AtomicUsize::new(0));
        let count = rejected.clone();
        cornet.registry.register("software_upgrade", move |s| {
            let node = cornet_orchestrator::executor::require_str(s, "node")?;
            if ffa_names.contains(&node) {
                s.insert("previous_version".into(), ParamValue::from("19.3"));
                return Ok(());
            }
            count.fetch_add(1, Ordering::SeqCst);
            Err(cornet_types::CornetError::ExecutionFailed(
                "firmware image rejected".into(),
            ))
        });
        let war = cornet
            .deploy_workflow(&software_upgrade_workflow(&cornet.catalog))
            .unwrap();
        (cornet, war, rejected)
    }

    #[test]
    fn breaker_trips_before_the_verifier_sees_anything() {
        // KPIs look great everywhere, but the upgrade block itself fails
        // on every network-phase node: the circuit breaker must halt on
        // execution fall-out alone, no KPI degradation required.
        let f = fixture();
        let controls = f
            .cornet
            .inventory
            .iter()
            .filter(|r| r.nf_type == NfType::Siad)
            .map(|r| r.id)
            .collect::<Vec<_>>();
        let adapter = adapter_with_magnitude(f.enbs.clone(), 0.2);
        let r = rule(controls);
        let (cornet, war, _) = failing_outside_ffa(&f);
        let report = staged_rollout(
            &cornet,
            RolloutPlan {
                war: &war,
                ffa: f.ffa.clone(),
                network: f.network.clone(),
                rule: &r,
                concurrency: 4,
                gate_every: 1,
                breaker: Some(CircuitBreaker {
                    failure_threshold: 0.5,
                    min_samples: 3,
                }),
            },
            &adapter,
            |_slot| 10_000,
            inputs(&cornet),
        )
        .unwrap();
        assert_eq!(report.ffa_decision, GoNoGo::Go);
        assert_eq!(report.outcome, RolloutOutcome::Halted { after_slot: 1 });
        let trip = report
            .breaker_trip
            .expect("the breaker, not the verifier, halted");
        assert_eq!(trip.block, "software_upgrade");
        assert!(trip.failure_rate >= 0.5, "rate {}", trip.failure_rate);
        assert!(
            report.network.instances.len() < 14,
            "tail slots were spared"
        );
    }

    #[test]
    fn fallout_halts_per_completion_not_per_slot() {
        // All 14 network nodes share one slot and the upgrade fails on
        // every one of them. A breaker looking only at slot boundaries
        // burns the whole slot; the dispatcher's own stops after
        // `min_samples` completions plus whatever was in flight.
        let f = fixture();
        let controls = f
            .cornet
            .inventory
            .iter()
            .filter(|r| r.nf_type == NfType::Siad)
            .map(|r| r.id)
            .collect::<Vec<_>>();
        let adapter = adapter_with_magnitude(f.enbs.clone(), 0.2);
        let r = rule(controls);
        let (cornet, war, rejected) = failing_outside_ffa(&f);
        let mut one_slot = Schedule::default();
        for &n in &f.enbs[2..] {
            one_slot.assignments.insert(n, Timeslot(1));
        }
        let (min_samples, concurrency) = (3, 1);
        let report = staged_rollout(
            &cornet,
            RolloutPlan {
                war: &war,
                ffa: f.ffa.clone(),
                network: one_slot,
                rule: &r,
                concurrency,
                gate_every: 1,
                breaker: Some(CircuitBreaker {
                    failure_threshold: 0.5,
                    min_samples,
                }),
            },
            &adapter,
            |_slot| 10_000,
            inputs(&cornet),
        )
        .unwrap();
        assert_eq!(report.outcome, RolloutOutcome::Halted { after_slot: 1 });
        assert!(report.breaker_trip.is_some());
        assert_eq!(report.network.instances.len(), min_samples);
        let touched = report.network.instances.len() + report.network.drained.len();
        assert!(touched <= min_samples + concurrency, "touched {touched}");
        assert_eq!(rejected.load(Ordering::SeqCst), touched);
    }
}
