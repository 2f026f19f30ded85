//! Building-block executors and the workflow global state.
//!
//! The catalog stores *metadata*; at run time the orchestrator resolves a
//! block name to an executor — in production an Ansible playbook or vendor
//! CLI behind the block's REST endpoint, here any `Fn(&mut GlobalState)`.
//! Executors communicate exclusively through the instance's global state
//! ("we capture the variables using global state information within the
//! graph", §3.2).

use crate::resilience::RetryPolicy;
use cornet_types::{CornetError, ParamValue, Result};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The shared variable state of one workflow instance.
pub type GlobalState = BTreeMap<String, ParamValue>;

/// Type-erased block implementation.
type BlockFn = dyn Fn(&mut GlobalState) -> Result<()> + Send + Sync;

/// Registry binding block names to executable implementations, together
/// with the per-block resilience configuration the engine consults at
/// execution time: retry policies (with an optional registry-wide
/// default) and execution deadlines.
///
/// The tables sit behind one `Arc`: a clone — one per workflow instance —
/// is a reference count, and `register`/`set_*` copy the tables on write
/// when a clone shares them, so a clone never sees a later change.
#[derive(Clone, Default)]
pub struct ExecutorRegistry {
    tables: Arc<Tables>,
}

#[derive(Clone, Default)]
struct Tables {
    blocks: BTreeMap<String, Arc<BlockFn>>,
    policies: BTreeMap<String, RetryPolicy>,
    default_policy: Option<RetryPolicy>,
    deadlines: BTreeMap<String, Duration>,
}

impl ExecutorRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an implementation for a block name (replaces any previous
    /// binding).
    pub fn register<F>(&mut self, block: &str, f: F)
    where
        F: Fn(&mut GlobalState) -> Result<()> + Send + Sync + 'static,
    {
        self.tables_mut()
            .blocks
            .insert(block.to_owned(), Arc::new(f));
    }

    /// Whether a block has an implementation.
    pub fn has(&self, block: &str) -> bool {
        self.tables.blocks.contains_key(block)
    }

    /// Execute a block against an instance's global state.
    pub fn execute(&self, block: &str, state: &mut GlobalState) -> Result<()> {
        let f = self.tables.blocks.get(block).ok_or_else(|| {
            CornetError::ExecutionFailed(format!("no executor registered for block '{block}'"))
        })?;
        f(state)
    }

    /// Names of registered blocks.
    pub fn block_names(&self) -> Vec<&str> {
        self.tables.blocks.keys().map(String::as_str).collect()
    }

    /// Attach a retry policy to one block (replaces any previous policy).
    pub fn set_retry_policy(&mut self, block: &str, policy: RetryPolicy) {
        self.tables_mut().policies.insert(block.to_owned(), policy);
    }

    /// Set the registry-wide default retry policy, used by blocks without
    /// a per-block policy.
    pub fn set_default_retry_policy(&mut self, policy: RetryPolicy) {
        self.tables_mut().default_policy = Some(policy);
    }

    /// The retry policy in effect for a block: per-block first, then the
    /// registry default, then `None` (fail on first error).
    pub fn retry_policy_for(&self, block: &str) -> Option<&RetryPolicy> {
        let tables = &*self.tables;
        tables
            .policies
            .get(block)
            .or(tables.default_policy.as_ref())
    }

    /// Attach an execution deadline to one block; the engine converts
    /// overruns into [`CornetError::Timeout`] failures.
    pub fn set_deadline(&mut self, block: &str, deadline: Duration) {
        self.tables_mut()
            .deadlines
            .insert(block.to_owned(), deadline);
    }

    /// The execution deadline for a block, if any.
    pub fn deadline_for(&self, block: &str) -> Option<Duration> {
        self.tables.deadlines.get(block).copied()
    }

    /// The tables to change, copied first if a clone shares them.
    fn tables_mut(&mut self) -> &mut Tables {
        Arc::make_mut(&mut self.tables)
    }
}

/// Fetch a required string input from the state.
pub fn require_str(state: &GlobalState, key: &str) -> Result<String> {
    state
        .get(key)
        .and_then(|v| v.as_str())
        .map(str::to_owned)
        .ok_or_else(|| CornetError::ExecutionFailed(format!("missing string input '{key}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_execute() {
        let mut reg = ExecutorRegistry::new();
        reg.register("double", |state| {
            let x = state.get("x").and_then(|v| v.as_i64()).unwrap_or(0);
            state.insert("x".into(), ParamValue::Int(x * 2));
            Ok(())
        });
        assert!(reg.has("double"));
        let mut state = GlobalState::new();
        state.insert("x".into(), ParamValue::Int(21));
        reg.execute("double", &mut state).unwrap();
        assert_eq!(state["x"], ParamValue::Int(42));
    }

    #[test]
    fn missing_executor_is_an_error() {
        let reg = ExecutorRegistry::new();
        let mut state = GlobalState::new();
        assert!(matches!(
            reg.execute("ghost", &mut state),
            Err(CornetError::ExecutionFailed(_))
        ));
    }

    #[test]
    fn require_helpers() {
        let mut state = GlobalState::new();
        state.insert("node".into(), ParamValue::from("enb-1"));
        assert_eq!(require_str(&state, "node").unwrap(), "enb-1");
        assert!(require_str(&state, "missing").is_err());
    }

    #[test]
    fn registry_is_cloneable_and_shared() {
        let mut reg = ExecutorRegistry::new();
        reg.register("noop", |_| Ok(()));
        let reg2 = reg.clone();
        assert!(reg2.has("noop"));
    }

    #[test]
    fn changing_a_clone_leaves_the_original_alone() {
        let mut original = ExecutorRegistry::new();
        original.register("step", |s| {
            s.insert("by".into(), ParamValue::from("original"));
            Ok(())
        });
        original.set_retry_policy("step", RetryPolicy::with_attempts(2));
        let mut copy = original.clone();
        copy.register("step", |s| {
            s.insert("by".into(), ParamValue::from("copy"));
            Ok(())
        });
        copy.register("extra", |_| Ok(()));
        copy.set_retry_policy("step", RetryPolicy::with_attempts(7));
        copy.set_default_retry_policy(RetryPolicy::with_attempts(3));
        copy.set_deadline("step", Duration::from_millis(5));

        let ran_by = |reg: &ExecutorRegistry| {
            let mut state = GlobalState::new();
            reg.execute("step", &mut state).unwrap();
            state["by"].as_str().unwrap().to_owned()
        };
        assert_eq!(ran_by(&original), "original");
        assert_eq!(ran_by(&copy), "copy");
        assert!(!original.has("extra") && copy.has("extra"));
        assert_eq!(original.retry_policy_for("step").unwrap().max_attempts, 2);
        assert_eq!(copy.retry_policy_for("step").unwrap().max_attempts, 7);
        assert!(original.retry_policy_for("other").is_none());
        assert_eq!(original.deadline_for("step"), None);
        assert_eq!(original.block_names(), vec!["step"]);
    }

    #[test]
    fn per_block_policy_shadows_default() {
        let mut reg = ExecutorRegistry::new();
        assert!(reg.retry_policy_for("x").is_none(), "no policy by default");
        reg.set_default_retry_policy(RetryPolicy::with_attempts(2));
        reg.set_retry_policy("fragile", RetryPolicy::with_attempts(5));
        assert_eq!(reg.retry_policy_for("fragile").unwrap().max_attempts, 5);
        assert_eq!(
            reg.retry_policy_for("anything_else").unwrap().max_attempts,
            2
        );
    }

    #[test]
    fn deadlines_are_per_block() {
        let mut reg = ExecutorRegistry::new();
        reg.set_deadline("slow", std::time::Duration::from_secs(5));
        assert_eq!(
            reg.deadline_for("slow"),
            Some(std::time::Duration::from_secs(5))
        );
        assert_eq!(reg.deadline_for("fast"), None);
    }
}
