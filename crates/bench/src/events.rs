//! Event-driven composition — the alternative design §3.2 contrasts with
//! workflows.
//!
//! "An alternate design strategy to workflow-based change composition is
//! to use event-driven (or, policy-based) composition of changes where
//! building blocks are invoked based on events triggered by other building
//! blocks. … In the future, we plan to quantitatively compare the
//! approaches." We implement that alternative so the comparison can run:
//! blocks subscribe to events (optionally guarded on state), execute, and
//! emit follow-up events; the bus drains to quiescence. [`sec32`] is the
//! comparison.

use crate::claims::{table, Bound, Claims, Row, Scale};
use cornet_catalog::builtin_catalog;
use cornet_obs::Tracer;
use cornet_orchestrator::{Engine, ExecutorRegistry, GlobalState};
use cornet_types::{ParamValue, Result};
use cornet_workflow::builtin::software_upgrade_workflow;
use cornet_workflow::WarArtifact;
use std::collections::VecDeque;
use std::sync::Arc;

type Guard = dyn Fn(&GlobalState) -> bool + Send + Sync;

/// One subscription: when `event` fires and `guard` passes, run `block`
/// and then emit `emits`.
struct Subscription {
    event: String,
    guard: Option<Arc<Guard>>,
    block: String,
    emits: Option<String>,
}

/// A message-driven composition of building blocks.
pub struct EventBus {
    registry: ExecutorRegistry,
    subscriptions: Vec<Subscription>,
    /// Firings are recorded as `bus.firing` spans on this tracer (one
    /// per block execution, carrying `event` and `block` attributes),
    /// nested under a `bus.publish` span per publish call. Defaults to an
    /// attached wall-clock tracer so firing history is always available;
    /// swap in a shared or deterministic tracer with
    /// [`EventBus::set_tracer`].
    tracer: Tracer,
}

impl EventBus {
    /// Create a bus over an executor registry.
    pub fn new(registry: ExecutorRegistry) -> Self {
        EventBus {
            registry,
            subscriptions: Vec::new(),
            tracer: Tracer::wall(),
        }
    }

    /// Replace the bus's tracer (e.g. share the dispatcher's collector,
    /// or inject a deterministic clock in tests).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The bus's tracer; snapshot it for span-level firing history. Each
    /// block execution records a `bus.firing` span carrying `event` and
    /// `block` attributes, nested under its `bus.publish` root.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Subscribe a block to an event.
    pub fn subscribe(&mut self, event: &str, block: &str, emits: Option<&str>) {
        self.subscriptions.push(Subscription {
            event: event.to_owned(),
            guard: None,
            block: block.to_owned(),
            emits: emits.map(str::to_owned),
        });
    }

    /// Subscribe with a guard over the shared state (the event-driven
    /// equivalent of a decision gateway).
    pub fn subscribe_if<F>(&mut self, event: &str, guard: F, block: &str, emits: Option<&str>)
    where
        F: Fn(&GlobalState) -> bool + Send + Sync + 'static,
    {
        self.subscriptions.push(Subscription {
            event: event.to_owned(),
            guard: Some(Arc::new(guard)),
            block: block.to_owned(),
            emits: emits.map(str::to_owned),
        });
    }

    /// Publish an event and drain the bus to quiescence. Returns the
    /// number of block executions. `max_steps` bounds runaway cascades.
    pub fn publish(
        &mut self,
        event: &str,
        state: &mut GlobalState,
        max_steps: usize,
    ) -> Result<usize> {
        let mut queue: VecDeque<String> = VecDeque::from([event.to_owned()]);
        let mut executed = 0usize;
        let mut publish_span = self.tracer.span("bus.publish");
        publish_span.attr("event", event);
        let publish_id = publish_span.is_recording().then(|| publish_span.id());
        while let Some(ev) = queue.pop_front() {
            if executed >= max_steps {
                publish_span.attr("error", "cascade cap exceeded");
                return Err(cornet_types::CornetError::ExecutionFailed(format!(
                    "event cascade exceeded {max_steps} steps — loop in policy composition?"
                )));
            }
            // Collect matching subscriptions first (borrow rules).
            let matches: Vec<(String, Option<String>)> = self
                .subscriptions
                .iter()
                .filter(|s| s.event == ev && s.guard.as_ref().is_none_or(|g| g(state)))
                .map(|s| (s.block.clone(), s.emits.clone()))
                .collect();
            for (block, emits) in matches {
                let mut firing = self.tracer.span_with_parent("bus.firing", publish_id);
                firing.attr("event", ev.as_str());
                firing.attr("block", block.as_str());
                let result = self.registry.execute(&block, state);
                if let Err(e) = &result {
                    firing.attr("error", e.to_string());
                }
                firing.finish();
                result?;
                executed += 1;
                if let Some(next) = emits {
                    queue.push_back(next);
                }
            }
        }
        publish_span.attr("executed", executed);
        Ok(executed)
    }
}

/// Executors that only record their outputs, so a run costs what the
/// composition mechanism costs.
fn instant_registry() -> ExecutorRegistry {
    let mut reg = ExecutorRegistry::new();
    reg.register("health_check", |s| {
        s.insert("healthy".into(), ParamValue::from(true));
        Ok(())
    });
    reg.register("software_upgrade", |s| {
        s.insert("previous_version".into(), ParamValue::from("old"));
        Ok(())
    });
    reg.register("pre_post_comparison", |s| {
        s.insert("passed".into(), ParamValue::from(true));
        Ok(())
    });
    reg.register("roll_back", |_| Ok(()));
    reg
}

/// The Fig. 4 flow expressed as events instead of a workflow graph.
fn fig4_bus(registry: ExecutorRegistry) -> EventBus {
    let mut bus = EventBus::new(registry);
    bus.subscribe("change.requested", "health_check", Some("health.checked"));
    bus.subscribe_if(
        "health.checked",
        |s| s.get("healthy").and_then(|v| v.as_bool()) == Some(true),
        "software_upgrade",
        Some("upgrade.done"),
    );
    bus.subscribe(
        "upgrade.done",
        "pre_post_comparison",
        Some("comparison.done"),
    );
    bus.subscribe_if(
        "comparison.done",
        |s| s.get("passed").and_then(|v| v.as_bool()) == Some(false),
        "roll_back",
        None,
    );
    bus
}

/// §3.2: Fig. 4's flow through the workflow engine and through the bus.
pub fn sec32(scale: Scale) -> Vec<Row> {
    let instances = if scale == Scale::Quick { 2_000 } else { 20_000 };
    let catalog = builtin_catalog();
    let fig4 = software_upgrade_workflow(&catalog);
    let war = WarArtifact::package(&fig4, &catalog).expect("Fig. 4 packages");
    let registry = instant_registry();
    let inputs = || {
        let mut g = GlobalState::new();
        g.insert("node".into(), ParamValue::from("enb-1"));
        g.insert("software_version".into(), ParamValue::from("20.1"));
        g
    };
    let micros_each = |run: &mut dyn FnMut()| {
        let started = std::time::Instant::now();
        (0..instances).for_each(|_| run());
        started.elapsed().as_secs_f64() * 1e6 / instances as f64
    };
    let workflow = micros_each(&mut || {
        let engine = Engine::from_war(&war, registry.clone(), inputs());
        let mut engine = engine.expect("WAR unpacks");
        std::hint::black_box(engine.run().expect("Fig. 4 runs"));
    });
    let events = micros_each(&mut || {
        let mut bus = fig4_bus(registry.clone());
        bus.set_tracer(Tracer::noop());
        let fired = bus.publish("change.requested", &mut inputs(), 100);
        std::hint::black_box(fired.expect("bus drains"));
    });
    let title = format!("§3.2 — overhead per instance of Fig. 4's flow ({instances} instances)");
    let cells = [
        format!("workflow engine (from the WAR) | {workflow:.1}"),
        format!("event bus | {events:.1}"),
    ];
    table(&title, "mode | µs per instance", &cells);
    // A building block that touches a network function takes milliseconds
    // at the least; 100 µs is 1 % of a 10 ms block.
    let paper = "the choice is about state and troubleshooting, not throughput";
    let mut t = Claims::new("sec32", "§3.2");
    t.claim("workflow_us", "workflow engine, overhead per instance, µs")
        .paper(paper)
        .measured(workflow, Bound::at_most(100.0));
    t.claim("event_bus_us", "event bus, overhead per instance, µs")
        .paper(paper)
        .measured(events, Bound::at_most(100.0));
    t.done()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_obs::AttrValue;

    /// Block names of the `bus.firing` spans, in firing order.
    fn fired_blocks(bus: &EventBus) -> Vec<String> {
        bus.tracer()
            .snapshot()
            .spans_named("bus.firing")
            .map(|s| match s.attr("block") {
                Some(AttrValue::Str(b)) => b.clone(),
                other => panic!("firing span without block attr: {other:?}"),
            })
            .collect()
    }

    fn fig4_bus() -> EventBus {
        super::fig4_bus(instant_registry())
    }

    #[test]
    fn event_flow_mirrors_workflow_happy_path() {
        let mut bus = fig4_bus();
        let mut state = GlobalState::new();
        state.insert("node".into(), ParamValue::from("enb-1"));
        let n = bus.publish("change.requested", &mut state, 100).unwrap();
        assert_eq!(n, 3, "health check, upgrade, comparison; no roll-back");
        assert_eq!(
            fired_blocks(&bus),
            vec!["health_check", "software_upgrade", "pre_post_comparison"]
        );
        // The same history is available as spans: one publish root with
        // three firing children.
        let spans = bus.tracer().snapshot();
        let publish = spans.spans_named("bus.publish").next().unwrap();
        assert_eq!(spans.children_of(publish.id).len(), 3);
    }

    #[test]
    fn guard_blocks_unhealthy_upgrade() {
        let mut bus = fig4_bus();
        // Override: health check reports unhealthy.
        let mut reg = instant_registry();
        reg.register("health_check", |s| {
            s.insert("healthy".into(), ParamValue::from(false));
            Ok(())
        });
        bus.registry = reg;
        let mut state = GlobalState::new();
        let n = bus.publish("change.requested", &mut state, 100).unwrap();
        assert_eq!(n, 1, "only the health check fires");
    }

    #[test]
    fn failed_comparison_triggers_rollback_event() {
        let mut bus = fig4_bus();
        let mut reg = instant_registry();
        reg.register("pre_post_comparison", |s| {
            s.insert("passed".into(), ParamValue::from(false));
            Ok(())
        });
        bus.registry = reg;
        let mut state = GlobalState::new();
        let n = bus.publish("change.requested", &mut state, 100).unwrap();
        assert_eq!(n, 4);
        assert_eq!(
            fired_blocks(&bus).last().map(String::as_str),
            Some("roll_back")
        );
    }

    #[test]
    fn runaway_cascade_is_capped() {
        let mut reg = ExecutorRegistry::new();
        reg.register("ping", |_| Ok(()));
        let mut bus = EventBus::new(reg);
        bus.subscribe("tick", "ping", Some("tock"));
        bus.subscribe("tock", "ping", Some("tick"));
        let mut state = GlobalState::new();
        assert!(
            bus.publish("tick", &mut state, 50).is_err(),
            "loop detected"
        );
    }
}
