//! Post-hoc fall-out analysis over dispatch reports.
//!
//! "Our fine-grained logging thus enables the network operations teams to
//! identify the offending building blocks based on their status of
//! execution across multiple change workflows. Such post-hoc analysis of
//! the workflow execution is often important to troubleshoot unsuccessful
//! change executions" (§3.4).

use crate::dispatcher::{DispatchReport, InstanceReport};
use crate::engine::{BlockStatus, InstanceStatus};
use std::collections::BTreeMap;

/// Aggregated execution statistics for one building block.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlockStats {
    /// Executions that ultimately produced outputs (first-try successes
    /// plus recoveries).
    pub successes: usize,
    /// Failed executions (the block was the offender).
    pub failures: usize,
    /// Subset of `successes` that needed retries to get there — an early
    /// warning even when nothing failed outright.
    pub recovered: usize,
    /// Subset of `failures` caused by a deadline overrun.
    pub timeouts: usize,
    /// Failure counts grouped by error kind — the text before the first
    /// `:` of the error message (e.g. `"transient failure"`, `"timeout"`,
    /// `"execution failed"`). Lets troubleshooting separate connectivity
    /// fall-out from real block defects.
    pub by_error: BTreeMap<String, usize>,
}

impl BlockStats {
    /// Failure rate in `[0, 1]`; 0 for never-executed blocks.
    pub fn failure_rate(&self) -> f64 {
        let total = self.successes + self.failures;
        if total == 0 {
            0.0
        } else {
            self.failures as f64 / total as f64
        }
    }
}

/// Error-kind grouping key: the message text before the first `:`, or the
/// whole message when there is none.
fn error_kind(message: &str) -> &str {
    message.split(':').next().unwrap_or(message).trim()
}

/// Fall-out summary across one or more dispatch reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FalloutAnalysis {
    /// Per-block execution statistics.
    pub per_block: BTreeMap<String, BlockStats>,
    /// Total workflow instances analyzed.
    pub instances: usize,
    /// Instances that completed a start→end flow.
    pub completed: usize,
}

impl FalloutAnalysis {
    /// Aggregate one or more dispatch reports. Only the deterministic
    /// `instances` prefix of each report is counted — instances drained
    /// after a halt ([`DispatchReport::drained`]) have timing-dependent
    /// membership and would make the analysis nondeterministic.
    pub fn from_reports<'a>(reports: impl IntoIterator<Item = &'a DispatchReport>) -> Self {
        let mut analysis = FalloutAnalysis::default();
        for report in reports {
            for instance in &report.instances {
                analysis.add_instance(instance);
            }
        }
        analysis
    }

    /// Fold one instance into the running totals — the incremental form
    /// the dispatcher's completion-event circuit breaker uses to check
    /// failure rates after every finished instance without re-walking the
    /// whole report. `from_reports` is exactly this, folded over every
    /// instance.
    pub fn add_instance(&mut self, instance: &InstanceReport) {
        self.instances += 1;
        if instance.status == InstanceStatus::Completed {
            self.completed += 1;
        }
        for exec in &instance.blocks {
            let stats = self.per_block.entry(exec.block.clone()).or_default();
            match exec.status {
                BlockStatus::Success => stats.successes += 1,
                BlockStatus::Recovered { .. } => {
                    stats.successes += 1;
                    stats.recovered += 1;
                }
                BlockStatus::Failed | BlockStatus::TimedOut => {
                    stats.failures += 1;
                    if exec.status == BlockStatus::TimedOut {
                        stats.timeouts += 1;
                    }
                    let kind = exec
                        .error
                        .as_deref()
                        .map(error_kind)
                        .unwrap_or("unknown")
                        .to_string();
                    *stats.by_error.entry(kind).or_default() += 1;
                }
            }
        }
    }

    /// Blocks ordered by failure count descending — the troubleshooting
    /// starting point.
    pub fn offenders(&self) -> Vec<(&str, &BlockStats)> {
        let mut v: Vec<(&str, &BlockStats)> = self
            .per_block
            .iter()
            .filter(|(_, s)| s.failures > 0)
            .map(|(b, s)| (b.as_str(), s))
            .collect();
        v.sort_by(|a, b| b.1.failures.cmp(&a.1.failures).then(a.0.cmp(b.0)));
        v
    }

    /// Overall completion rate.
    pub fn completion_rate(&self) -> f64 {
        if self.instances == 0 {
            1.0
        } else {
            self.completed as f64 / self.instances as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::InstanceReport;
    use crate::engine::{BlockExecution, InstanceStatus};
    use cornet_types::{NodeId, Timeslot};
    use std::time::Duration;

    fn exec(block: &str, status: BlockStatus, error: Option<&str>) -> BlockExecution {
        BlockExecution {
            block: block.into(),
            status,
            duration: Duration::from_millis(10),
            error: error.map(Into::into),
            attempts: match status {
                BlockStatus::Recovered { attempts } => attempts,
                _ => 1,
            },
            backoff: Duration::ZERO,
        }
    }

    fn ok(block: &str) -> BlockExecution {
        exec(block, BlockStatus::Success, None)
    }

    fn failed(block: &str, error: &str) -> BlockExecution {
        exec(block, BlockStatus::Failed, Some(error))
    }

    type Entry = (u32, Vec<BlockExecution>, InstanceStatus);

    fn report(entries: Vec<Entry>) -> DispatchReport {
        DispatchReport {
            instances: entries
                .into_iter()
                .map(|(node, blocks, status)| InstanceReport {
                    node: NodeId(node),
                    slot: Timeslot(1),
                    status,
                    blocks,
                })
                .collect(),
            drained: Vec::new(),
        }
    }

    #[test]
    fn aggregates_across_reports() {
        let r1 = report(vec![
            (
                0,
                vec![ok("health_check"), ok("software_upgrade")],
                InstanceStatus::Completed,
            ),
            (
                1,
                vec![
                    ok("health_check"),
                    failed("software_upgrade", "execution failed: disk full"),
                ],
                InstanceStatus::Failed("software_upgrade".into()),
            ),
        ]);
        let r2 = report(vec![(
            2,
            vec![failed(
                "health_check",
                "transient failure: ssh connectivity lost",
            )],
            InstanceStatus::Failed("health_check".into()),
        )]);
        let a = FalloutAnalysis::from_reports([&r1, &r2]);
        assert_eq!(a.instances, 3);
        assert_eq!(a.completed, 1);
        assert!((a.completion_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.per_block["health_check"].successes, 2);
        assert_eq!(a.per_block["health_check"].failures, 1);
        assert_eq!(a.per_block["software_upgrade"].failures, 1);
        assert_eq!(a.per_block["health_check"].by_error["transient failure"], 1);
        assert_eq!(
            a.per_block["software_upgrade"].by_error["execution failed"],
            1
        );
    }

    #[test]
    fn failure_rate_math_is_exact() {
        // 3 successes (one via retries) + 1 timeout + 1 plain failure
        // over 5 executions → rate 2/5.
        let r = report(vec![
            (0, vec![ok("u")], InstanceStatus::Completed),
            (1, vec![ok("u")], InstanceStatus::Completed),
            (
                2,
                vec![exec("u", BlockStatus::Recovered { attempts: 3 }, None)],
                InstanceStatus::Completed,
            ),
            (
                3,
                vec![exec(
                    "u",
                    BlockStatus::TimedOut,
                    Some("timeout: block 'u' ran 900ms, deadline 500ms"),
                )],
                InstanceStatus::Failed("u".into()),
            ),
            (
                4,
                vec![failed("u", "execution failed: disk full")],
                InstanceStatus::Failed("u".into()),
            ),
        ]);
        let a = FalloutAnalysis::from_reports([&r]);
        let stats = &a.per_block["u"];
        assert_eq!(stats.successes, 3, "recoveries count as successes");
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.failures, 2);
        assert_eq!(stats.timeouts, 1);
        assert!((stats.failure_rate() - 0.4).abs() < 1e-12);
        assert_eq!(stats.by_error["timeout"], 1);
        assert_eq!(stats.by_error["execution failed"], 1);
    }

    #[test]
    fn multi_report_merge_sums_every_counter() {
        let mk = |node: u32| {
            report(vec![
                (
                    node,
                    vec![exec("u", BlockStatus::Recovered { attempts: 2 }, None)],
                    InstanceStatus::Completed,
                ),
                (
                    node + 1,
                    vec![failed("u", "transient failure: ssh connectivity lost")],
                    InstanceStatus::Failed("u".into()),
                ),
            ])
        };
        let (r1, r2, r3) = (mk(0), mk(10), mk(20));
        let merged = FalloutAnalysis::from_reports([&r1, &r2, &r3]);
        assert_eq!(merged.instances, 6);
        assert_eq!(merged.completed, 3);
        let stats = &merged.per_block["u"];
        assert_eq!(stats.successes, 3);
        assert_eq!(stats.recovered, 3);
        assert_eq!(stats.failures, 3);
        assert_eq!(stats.by_error["transient failure"], 3);
        assert!((stats.failure_rate() - 0.5).abs() < 1e-12);
        // Merging must equal analyzing one report alone, tripled.
        let alone = FalloutAnalysis::from_reports([&r1]);
        assert_eq!(alone.per_block["u"].failures * 3, stats.failures);
        assert_eq!(alone.per_block["u"].successes * 3, stats.successes);
        assert_eq!(alone.instances * 3, merged.instances);
    }

    #[test]
    fn offenders_sorted_by_failures() {
        let r = report(vec![
            (
                0,
                vec![failed("a", "execution failed: x")],
                InstanceStatus::Failed("a".into()),
            ),
            (
                1,
                vec![failed("a", "execution failed: x")],
                InstanceStatus::Failed("a".into()),
            ),
            (
                2,
                vec![failed("b", "execution failed: x")],
                InstanceStatus::Failed("b".into()),
            ),
            (3, vec![ok("c")], InstanceStatus::Completed),
        ]);
        let a = FalloutAnalysis::from_reports([&r]);
        let offenders = a.offenders();
        assert_eq!(offenders.len(), 2, "c never failed");
        assert_eq!(offenders[0].0, "a");
        assert_eq!(offenders[0].1.failures, 2);
        assert_eq!(offenders[1].0, "b");
    }

    #[test]
    fn failure_rate_handles_empty() {
        let s = BlockStats::default();
        assert_eq!(s.failure_rate(), 0.0);
        let a = FalloutAnalysis::default();
        assert_eq!(a.completion_rate(), 1.0);
    }
}
