//! Static analysis of the resilience configuration (`CN03xx`).
//!
//! Retry policies, deadlines, and circuit breakers are arithmetic
//! artifacts: a policy whose worst-case backoff outlasts the block's
//! deadline retries into certain timeouts, a breaker threshold above 1.0
//! can never trip (failure rates top out at 1), and a sample floor larger
//! than the campaign will never be reached. None of these misconfigurations
//! fail fast at run time — they silently disable the safety net §2.1's
//! halt-the-rollout decision depends on. This pass checks the arithmetic
//! before anything executes.

use crate::resilience::{CircuitBreaker, RetryPolicy};
use cornet_analysis::{Code, Diagnostic, Report, SourceRef};
use cornet_catalog::Catalog;
use cornet_workflow::Workflow;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// The analyzable projection of a deployment's resilience configuration:
/// the registry's retry policies and deadlines plus the campaign-level
/// breaker and planned instance count the registry itself cannot know.
#[derive(Clone, Debug, Default)]
pub struct ResilienceSpec {
    /// Per-block retry policies.
    pub policies: BTreeMap<String, RetryPolicy>,
    /// Registry-wide default policy for blocks without their own.
    pub default_policy: Option<RetryPolicy>,
    /// Per-block execution deadlines.
    pub deadlines: BTreeMap<String, Duration>,
    /// The circuit breaker guarding the roll-out, if any.
    pub breaker: Option<CircuitBreaker>,
    /// Workflow instances the campaign plans to dispatch, if known;
    /// bounds the samples the breaker can ever observe per block.
    pub planned_instances: Option<usize>,
}

/// Check the resilience arithmetic, appending `CN03xx` diagnostics.
pub fn analyze_resilience(spec: &ResilienceSpec, report: &mut Report) {
    let scopes = spec
        .default_policy
        .iter()
        .map(|p| (None, p))
        .chain(spec.policies.iter().map(|(b, p)| (Some(b.as_str()), p)));
    for (block, policy) in scopes {
        let source = match block {
            Some(b) => SourceRef::Block {
                block: b.to_owned(),
            },
            None => SourceRef::Global,
        };
        let scope = block.map_or_else(
            || "the default retry policy".to_owned(),
            |b| format!("the retry policy for block '{b}'"),
        );
        if policy.max_attempts == 0 {
            report.push(
                Diagnostic::error(
                    Code("CN0301"),
                    source.clone(),
                    format!("{scope} allows zero attempts; the block can never execute"),
                )
                .with_hint("set max_attempts to at least 1 (1 means no retries)"),
            );
            continue; // the backoff series is empty; nothing more to check
        }
        // Compare the worst-case backoff series against the deadline of
        // every block this policy governs.
        let governed: Vec<&str> = match block {
            Some(b) => vec![b],
            None => spec
                .deadlines
                .keys()
                .map(String::as_str)
                .filter(|b| !spec.policies.contains_key(*b))
                .collect(),
        };
        for b in governed {
            let Some(deadline) = spec.deadlines.get(b) else {
                continue;
            };
            let worst = policy.worst_case_backoff_total();
            if worst > *deadline {
                report.push(
                    Diagnostic::warning(
                        Code("CN0302"),
                        SourceRef::Block {
                            block: b.to_owned(),
                        },
                        format!(
                            "worst-case retry backoff of {scope} ({:.1}s) exceeds the \
                             {:.1}s deadline of block '{b}'; later retries are dead on arrival",
                            worst.as_secs_f64(),
                            deadline.as_secs_f64()
                        ),
                    )
                    .with_hint("shorten the backoff curve or raise the block deadline"),
                );
            }
        }
    }
    if let Some(breaker) = &spec.breaker {
        if breaker.failure_threshold > 1.0 {
            report.push(
                Diagnostic::error(
                    Code("CN0303"),
                    SourceRef::Global,
                    format!(
                        "circuit breaker threshold {} can never trip: failure rates top out at 1.0",
                        breaker.failure_threshold
                    ),
                )
                .with_hint("thresholds are failure-rate fractions in (0, 1]"),
            );
        } else if breaker.failure_threshold <= 0.0 {
            report.push(
                Diagnostic::warning(
                    Code("CN0304"),
                    SourceRef::Global,
                    format!(
                        "circuit breaker threshold {} trips on any sampled block, even \
                         an all-success one",
                        breaker.failure_threshold
                    ),
                )
                .with_hint("use a threshold strictly above 0 so healthy roll-outs proceed"),
            );
        }
        if let Some(planned) = spec.planned_instances {
            if breaker.min_samples > planned {
                report.push(
                    Diagnostic::error(
                        Code("CN0305"),
                        SourceRef::Global,
                        format!(
                            "circuit breaker needs {} samples before it trusts a failure rate, \
                             but the campaign only dispatches {planned} instances; the breaker \
                             can never trip",
                            breaker.min_samples
                        ),
                    )
                    .with_hint("lower min_samples below the planned instance count"),
                );
            }
        }
    }
}

/// Check that every mutating block a crash could strand mid-flight has a
/// recovery story, appending `CN0306` diagnostics.
///
/// A kill between a block's side effect and its journal append leaves the
/// network mutated with no record; on resume the block re-executes. That
/// is safe when the block is idempotent (re-running converges) or when the
/// workflow designates a backout flow (a permanent failure of the re-run
/// rolls the instance back). A mutating block with neither marker makes
/// crash recovery a gamble — flag it before the campaign runs.
pub fn analyze_replay_safety(workflow: &Workflow, catalog: &Catalog, report: &mut Report) {
    if workflow.backout.is_some() {
        return;
    }
    let mut seen = BTreeSet::new();
    for block in workflow.blocks() {
        if !seen.insert(block) {
            continue;
        }
        let Some(spec) = catalog.get(block) else {
            continue; // unknown blocks are the workflow pass's problem
        };
        if spec.mutates && !spec.idempotent {
            report.push(
                Diagnostic::warning(
                    Code("CN0306"),
                    SourceRef::Block {
                        block: block.to_owned(),
                    },
                    format!(
                        "mutating block '{block}' in workflow '{}' has no backout flow and \
                         no idempotency marker; re-executing it after a crash may double-apply \
                         its side effect",
                        workflow.name
                    ),
                )
                .with_hint(
                    "designate a backout subgraph on the workflow, or mark the block \
                     idempotent in the catalog if re-running it is safe",
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_analysis::Severity;

    fn spec_with(policy: RetryPolicy, deadline: Duration) -> ResilienceSpec {
        ResilienceSpec {
            policies: [("software_upgrade".to_owned(), policy)].into(),
            deadlines: [("software_upgrade".to_owned(), deadline)].into(),
            ..Default::default()
        }
    }

    fn spec_with_breaker(breaker: CircuitBreaker, planned: Option<usize>) -> ResilienceSpec {
        ResilienceSpec {
            breaker: Some(breaker),
            planned_instances: planned,
            ..Default::default()
        }
    }

    #[test]
    fn zero_attempt_policy_is_an_error() {
        let mut spec = ResilienceSpec::default();
        spec.policies.insert(
            "upgrade".into(),
            RetryPolicy {
                max_attempts: 0,
                ..Default::default()
            },
        );
        let mut report = Report::new();
        analyze_resilience(&spec, &mut report);
        assert_eq!(report.error_count(), 1, "{}", report.render_text());
        let d = &report.diagnostics[0];
        assert_eq!(d.code, Code("CN0301"));
        assert_eq!(
            d.source,
            SourceRef::Block {
                block: "upgrade".into()
            }
        );
        // Corrected twin: one attempt is legal (it just means no retries).
        let mut spec = ResilienceSpec::default();
        spec.policies
            .insert("upgrade".into(), RetryPolicy::with_attempts(1));
        let mut report = Report::new();
        analyze_resilience(&spec, &mut report);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn backoff_exceeding_deadline_warns() {
        // 4 attempts at 10s/20s/20s capped backoff: 75s worst case vs 30s.
        let slow = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_secs(10),
            multiplier: 10.0,
            max_backoff: Duration::from_secs(20),
            jitter_seed: 0,
        };
        let spec = spec_with(slow.clone(), Duration::from_secs(30));
        let mut report = Report::new();
        analyze_resilience(&spec, &mut report);
        assert_eq!(report.warning_count(), 1, "{}", report.render_text());
        let d = &report.diagnostics[0];
        assert_eq!(d.code, Code("CN0302"));
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("software_upgrade"), "{}", d.message);
        // Corrected twin: a generous deadline fits the whole series.
        let spec = spec_with(slow, Duration::from_secs(120));
        let mut report = Report::new();
        analyze_resilience(&spec, &mut report);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn default_policy_is_checked_against_uncovered_blocks_only() {
        let spec = ResilienceSpec {
            // The default policy backs off for 450ms worst case.
            default_policy: Some(RetryPolicy::default()),
            // 'covered' has its own instant policy; only 'bare' uses the default.
            policies: [("covered".to_owned(), RetryPolicy::with_attempts(1))].into(),
            deadlines: [
                ("covered".to_owned(), Duration::from_millis(1)),
                ("bare".to_owned(), Duration::from_millis(1)),
            ]
            .into(),
            ..Default::default()
        };
        let mut report = Report::new();
        analyze_resilience(&spec, &mut report);
        assert_eq!(report.warning_count(), 1, "{}", report.render_text());
        assert_eq!(
            report.diagnostics[0].source,
            SourceRef::Block {
                block: "bare".into()
            }
        );
    }

    #[test]
    fn untrippable_breaker_threshold_is_an_error() {
        let spec = spec_with_breaker(CircuitBreaker::with_threshold(1.5), None);
        let mut report = Report::new();
        analyze_resilience(&spec, &mut report);
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.diagnostics[0].code, Code("CN0303"));
        // A threshold of exactly 1.0 is reachable (total failure) — clean.
        let spec = spec_with_breaker(CircuitBreaker::with_threshold(1.0), None);
        let mut report = Report::new();
        analyze_resilience(&spec, &mut report);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn hair_trigger_breaker_threshold_warns() {
        let spec = spec_with_breaker(CircuitBreaker::with_threshold(0.0), None);
        let mut report = Report::new();
        analyze_resilience(&spec, &mut report);
        assert_eq!(report.warning_count(), 1);
        assert_eq!(report.diagnostics[0].code, Code("CN0304"));
    }

    fn upgrade_workflow() -> Workflow {
        use cornet_workflow::{NodeKind, Workflow};
        let mut wf = Workflow::new("upgrade");
        let s = wf.add_node("start", NodeKind::Start);
        let hc = wf.add_node(
            "hc",
            NodeKind::Task {
                block: "health_check".into(),
            },
        );
        let up = wf.add_node(
            "up",
            NodeKind::Task {
                block: "software_upgrade".into(),
            },
        );
        let e = wf.add_node("end", NodeKind::End);
        wf.add_edge(s, hc, None);
        wf.add_edge(hc, up, None);
        wf.add_edge(up, e, None);
        wf
    }

    fn upgrade_catalog(idempotent: bool) -> Catalog {
        use cornet_catalog::{BlockSpec, Phase};
        let mut cat = Catalog::new();
        cat.register(BlockSpec::new(
            "health_check",
            Phase::DesignOrchestration,
            "verify",
            true,
        ));
        let mut upgrade = BlockSpec::new(
            "software_upgrade",
            Phase::DesignOrchestration,
            "upgrade",
            false,
        )
        .mutating();
        if idempotent {
            upgrade = upgrade.idempotent();
        }
        cat.register(upgrade);
        cat
    }

    #[test]
    fn bare_mutating_block_without_backout_warns() {
        let mut report = Report::new();
        analyze_replay_safety(&upgrade_workflow(), &upgrade_catalog(false), &mut report);
        assert_eq!(report.warning_count(), 1, "{}", report.render_text());
        let d = &report.diagnostics[0];
        assert_eq!(d.code, Code("CN0306"));
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(
            d.source,
            SourceRef::Block {
                block: "software_upgrade".into()
            }
        );
        assert!(d.message.contains("double-apply"), "{}", d.message);
    }

    #[test]
    fn idempotency_marker_clears_cn0306() {
        // Corrected twin 1: an idempotent upgrade is safe to re-run.
        let mut report = Report::new();
        analyze_replay_safety(&upgrade_workflow(), &upgrade_catalog(true), &mut report);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn designated_backout_flow_clears_cn0306() {
        // Corrected twin 2: a backout flow gives re-runs a revert path.
        use cornet_workflow::{NodeKind, Workflow};
        let mut wf = upgrade_workflow();
        let mut back = Workflow::new("upgrade_backout");
        let s = back.add_node("start", NodeKind::Start);
        let rb = back.add_node(
            "rb",
            NodeKind::Task {
                block: "roll_back".into(),
            },
        );
        let e = back.add_node("end", NodeKind::End);
        back.add_edge(s, rb, None);
        back.add_edge(rb, e, None);
        wf.set_backout(back);
        let mut report = Report::new();
        analyze_replay_safety(&wf, &upgrade_catalog(false), &mut report);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn unknown_and_read_only_blocks_are_ignored() {
        use cornet_workflow::NodeKind;
        let mut wf = upgrade_workflow();
        // A block the catalog has never heard of (the workflow pass's
        // problem, not ours) and a duplicate of the mutating block (only
        // one diagnostic per distinct block).
        let ghost = wf.add_node(
            "ghost",
            NodeKind::Task {
                block: "not_in_catalog".into(),
            },
        );
        let again = wf.add_node(
            "up2",
            NodeKind::Task {
                block: "software_upgrade".into(),
            },
        );
        let end = cornet_workflow::WfNodeId(3);
        wf.add_edge(ghost, again, None);
        wf.add_edge(again, end, None);
        let mut report = Report::new();
        analyze_replay_safety(&wf, &upgrade_catalog(false), &mut report);
        assert_eq!(report.warning_count(), 1, "{}", report.render_text());
    }

    #[test]
    fn sample_floor_above_campaign_size_is_an_error() {
        let breaker = CircuitBreaker {
            failure_threshold: 0.5,
            min_samples: 100,
        };
        let spec = spec_with_breaker(breaker.clone(), Some(40));
        let mut report = Report::new();
        analyze_resilience(&spec, &mut report);
        assert_eq!(report.error_count(), 1, "{}", report.render_text());
        assert_eq!(report.diagnostics[0].code, Code("CN0305"));
        // Corrected twin: a larger campaign can reach the floor.
        let spec = spec_with_breaker(breaker, Some(200));
        let mut report = Report::new();
        analyze_resilience(&spec, &mut report);
        assert!(report.is_clean(), "{}", report.render_text());
    }
}
