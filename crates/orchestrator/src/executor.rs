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
#[derive(Clone, Default)]
pub struct ExecutorRegistry {
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
        self.blocks.insert(block.to_owned(), Arc::new(f));
    }

    /// Whether a block has an implementation.
    pub fn has(&self, block: &str) -> bool {
        self.blocks.contains_key(block)
    }

    /// Execute a block against an instance's global state.
    pub fn execute(&self, block: &str, state: &mut GlobalState) -> Result<()> {
        let f = self.blocks.get(block).ok_or_else(|| {
            CornetError::ExecutionFailed(format!("no executor registered for block '{block}'"))
        })?;
        f(state)
    }

    /// Names of registered blocks.
    pub fn block_names(&self) -> Vec<&str> {
        self.blocks.keys().map(String::as_str).collect()
    }

    /// Attach a retry policy to one block (replaces any previous policy).
    pub fn set_retry_policy(&mut self, block: &str, policy: RetryPolicy) {
        self.policies.insert(block.to_owned(), policy);
    }

    /// Set the registry-wide default retry policy, used by blocks without
    /// a per-block policy.
    pub fn set_default_retry_policy(&mut self, policy: RetryPolicy) {
        self.default_policy = Some(policy);
    }

    /// The retry policy in effect for a block: per-block first, then the
    /// registry default, then `None` (fail on first error).
    pub fn retry_policy_for(&self, block: &str) -> Option<&RetryPolicy> {
        self.policies.get(block).or(self.default_policy.as_ref())
    }

    /// Attach an execution deadline to one block; the engine converts
    /// overruns into [`CornetError::Timeout`] failures.
    pub fn set_deadline(&mut self, block: &str, deadline: Duration) {
        self.deadlines.insert(block.to_owned(), deadline);
    }

    /// The execution deadline for a block, if any.
    pub fn deadline_for(&self, block: &str) -> Option<Duration> {
        self.deadlines.get(block).copied()
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
