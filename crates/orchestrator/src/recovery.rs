//! Journal replay: one fold over a campaign's event log.
//!
//! A campaign's journal holds everything that happened to it, so one
//! [`CampaignFold`] over its records answers every question about it: the
//! daemon's live progress and its state after a restart, the `cornet
//! resume` banner, and [`recover_campaign`] — the fold plus the replay
//! rows of the instances a crash left in flight, from which the
//! dispatcher's `resume_from_journal` re-runs only what the log cannot
//! prove done.

use crate::dispatcher::{DispatchReport, InstanceReport};
use crate::engine::{BlockExecution, BlockStatus, InstanceStatus, ReplayRow};
use crate::resilience::BreakerTrip;
use cornet_journal::{BlockRecord, Halt, JournalEvent, Recovery};
use cornet_types::hash::fnv1a64;
use cornet_types::{CornetError, NodeId, Result, Schedule, Timeslot};
use std::collections::BTreeMap;
use std::time::Duration;

/// Everything the journal proves about a crashed (or finished) campaign.
#[derive(Clone, Debug, Default)]
pub struct RecoveredCampaign {
    /// Campaign metadata echoed from the `CampaignOpened` record.
    pub meta: BTreeMap<String, String>,
    /// The original schedule, rebuilt from the opening record.
    pub schedule: Schedule,
    /// Dispatcher concurrency of the original run.
    pub concurrency: usize,
    /// Instances with an `InstanceFinished` record: their reports are
    /// complete and must not be re-executed. Keyed by `(slot, node)`.
    pub completed: BTreeMap<(u32, u32), InstanceReport>,
    /// Instances admitted but not finished: the journaled prefix of their
    /// block log, to be replayed before fresh execution resumes. Keyed by
    /// `(slot, node)`; an empty row list means the instance was admitted
    /// but crashed before its first block completed.
    pub partial: BTreeMap<(u32, u32), Vec<ReplayRow>>,
    /// Breaker trip recorded by the latest run, if any.
    pub trip: Option<BreakerTrip>,
    /// True when a `CampaignClosed` record survives — nothing to resume.
    pub closed: bool,
    /// Torn-tail statistics from opening the journal.
    pub recovery: Recovery,
}

/// Terminal outcome summary of a campaign: what its closed journal says.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignResult {
    /// FNV-1a-64 fingerprint of the dispatch report (crash-recovery
    /// equality witness, [`report_fingerprint`]).
    pub fingerprint: u64,
    /// Instances that completed the mainline flow.
    pub completed: usize,
    /// Instances that failed outright.
    pub failed: usize,
    /// Instances reverted by their backout flow.
    pub rolled_back: usize,
    /// Block that tripped the breaker, if it fired.
    pub trip: Option<String>,
    /// True when the campaign was cancelled.
    pub cancelled: bool,
}

/// FNV-1a-64 over the outcome rows of a dispatch report: node, status,
/// and every block's name/status/attempts/sim-duration/backoff. Two runs
/// with the same fingerprint produced the same campaign outcome, so crash
/// recovery is verifiable by comparing two numbers.
pub fn report_fingerprint(report: &DispatchReport) -> u64 {
    use std::fmt::Write;
    let mut text = String::new();
    for i in &report.instances {
        let _ = write!(text, "{}|{:?};", i.node.0, i.status);
        for b in &i.blocks {
            let _ = write!(
                text,
                "{}:{:?}:{}:{}:{};",
                b.block,
                b.status,
                b.attempts,
                b.duration.as_nanos(),
                b.backoff.as_nanos()
            );
        }
    }
    fnv1a64(text.as_bytes())
}

/// A campaign's state, folded from its journal records one at a time —
/// the same state whether they arrive live from the journal's listener or
/// are read back after a restart. The first record must be
/// `campaign_opened`: a journal that lost it lost its schedule, which is
/// corruption, not an empty campaign.
///
/// At `campaign_closed` the fold computes the [`CampaignResult`] of the
/// report — the schedule's first [`Halt::ordered`] instances in dispatch
/// order, all of them after a bare close — and keeps only that summary and
/// the counters. `campaign_resumed` reopens it. [`recover_campaign`] keeps
/// the per-instance reports past a close: a resume re-admits them.
#[derive(Clone, Debug, Default)]
pub struct CampaignFold {
    /// What the records prove so far; `partial` stays empty.
    campaign: RecoveredCampaign,
    opened: bool,
    events: usize,
    blocks: usize,
    instances_done: usize,
    /// Admitted, not finished: the blocks so far, each with its record's
    /// position among the records folded. Keyed by `(slot, node)`.
    open: BTreeMap<(u32, u32), Vec<(BlockExecution, usize)>>,
    result: Option<CampaignResult>,
    /// Keep the per-instance reports past a close.
    replay: bool,
}

impl CampaignFold {
    /// Fold one more record. Every record counts as an event, one the
    /// fold refuses too.
    pub fn apply(&mut self, event: &JournalEvent) -> Result<()> {
        self.events += 1;
        if !self.opened && !matches!(event, JournalEvent::CampaignOpened { .. }) {
            return Err(CornetError::DataIntegrity(
                "journal does not begin with a campaign_opened record".into(),
            ));
        }
        match event {
            JournalEvent::CampaignOpened {
                meta,
                assignments,
                concurrency,
            } => {
                if self.opened {
                    return Err(CornetError::DataIntegrity(
                        "journal contains a second campaign_opened record".into(),
                    ));
                }
                self.opened = true;
                self.campaign.meta = meta.clone();
                self.campaign.schedule.assignments = assignments
                    .iter()
                    .map(|&(node, slot)| (NodeId(node), Timeslot(slot)))
                    .collect();
                self.campaign.concurrency = *concurrency as usize;
            }
            // A resume marker: the resumed run re-takes every decision and
            // writes its own trip and close.
            JournalEvent::CampaignResumed { .. } => {
                (self.campaign.trip, self.campaign.closed) = (None, false);
                self.result = None;
            }
            JournalEvent::InstanceAdmitted { node, slot } => {
                self.open.entry((*slot, *node)).or_default();
            }
            JournalEvent::BlockCompleted(rec) => {
                self.blocks += 1;
                let row = (exec_from_record(rec)?, self.events - 1);
                self.open.entry((rec.slot, rec.node)).or_default().push(row);
            }
            JournalEvent::InstanceFinished {
                node,
                slot,
                status,
                detail,
            } => {
                self.instances_done += 1;
                let rows = self.open.remove(&(*slot, *node)).unwrap_or_default();
                let report = InstanceReport {
                    node: NodeId(*node),
                    slot: Timeslot(*slot),
                    status: status_from_parts(status, detail.as_deref())?,
                    blocks: rows.into_iter().map(|(exec, _)| exec).collect(),
                };
                self.campaign.completed.insert((*slot, *node), report);
            }
            JournalEvent::BreakerTripped {
                block,
                failure_rate,
                samples,
            } => {
                self.campaign.trip = Some(BreakerTrip {
                    block: block.clone(),
                    failure_rate: *failure_rate,
                    samples: usize::try_from(*samples).unwrap_or(usize::MAX),
                });
            }
            JournalEvent::CampaignClosed(halt) => {
                self.result = Some(self.summarize(*halt)?);
                self.campaign.closed = true;
                if !self.replay {
                    self.open = BTreeMap::new();
                    self.campaign.completed = BTreeMap::new();
                }
            }
        }
        Ok(())
    }

    /// The summary a close record gives: the report is the schedule's
    /// first `ordered` instances in dispatch order (slot, then node), and
    /// each of them must have finished.
    fn summarize(&self, halt: Option<Halt>) -> Result<CampaignResult> {
        let schedule = &self.campaign.schedule.assignments;
        let ordered = halt.map_or(schedule.len(), |h| h.ordered as usize);
        if ordered > schedule.len() {
            return Err(CornetError::DataIntegrity(format!(
                "campaign_closed orders {ordered} instances of a {}-instance schedule",
                schedule.len()
            )));
        }
        let mut order: Vec<(u32, u32)> = schedule.iter().map(|(n, s)| (s.0, n.0)).collect();
        order.sort_unstable();
        let report = DispatchReport {
            instances: order
                .iter()
                .take(ordered)
                .map(|key| {
                    self.campaign.completed.get(key).cloned().ok_or_else(|| {
                        CornetError::DataIntegrity(format!(
                            "campaign_closed orders node {} of slot {}, which never finished",
                            key.1, key.0
                        ))
                    })
                })
                .collect::<Result<_>>()?,
            drained: Vec::new(),
        };
        Ok(CampaignResult {
            fingerprint: report_fingerprint(&report),
            completed: report.completed(),
            failed: report.failures().len(),
            rolled_back: report.rolled_back(),
            trip: self.campaign.trip.as_ref().map(|t| t.block.clone()),
            cancelled: halt.is_some_and(|h| h.cancelled),
        })
    }

    /// The campaign's metadata, once its `campaign_opened` is folded.
    pub fn meta(&self) -> Option<&BTreeMap<String, String>> {
        self.opened.then_some(&self.campaign.meta)
    }

    /// Records folded so far (the `/events` stream length).
    pub fn events(&self) -> usize {
        self.events
    }

    /// `block_completed` records folded so far.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// `instance_finished` records folded so far.
    pub fn instances_done(&self) -> usize {
        self.instances_done
    }

    /// Instances admitted and not finished.
    pub fn in_flight(&self) -> usize {
        self.open.len()
    }

    /// The campaign's outcome, once its journal is closed.
    pub fn result(&self) -> Option<&CampaignResult> {
        self.result.as_ref()
    }
}

/// Encode a [`BlockExecution`] plus its post-block state as a journal
/// [`BlockRecord`].
pub fn block_record(
    node: NodeId,
    slot: Timeslot,
    exec: &BlockExecution,
    state: &crate::executor::GlobalState,
    backout: bool,
) -> BlockRecord {
    BlockRecord {
        node: node.0,
        slot: slot.0,
        block: exec.block.clone(),
        status: exec.status.label().to_string(),
        attempts: match exec.status {
            BlockStatus::Recovered { attempts } => attempts,
            _ => exec.attempts,
        },
        duration_ns: exec.duration.as_nanos() as u64,
        backoff_ns: exec.backoff.as_nanos() as u64,
        error: exec.error.clone(),
        backout,
        state: state.clone(),
    }
}

/// Decode a journal [`BlockRecord`] back into the engine's execution row.
pub fn exec_from_record(rec: &BlockRecord) -> Result<BlockExecution> {
    let status = match rec.status.as_str() {
        "success" => BlockStatus::Success,
        "failed" => BlockStatus::Failed,
        "timed_out" => BlockStatus::TimedOut,
        "recovered" => BlockStatus::Recovered {
            attempts: rec.attempts,
        },
        other => {
            return Err(CornetError::DataIntegrity(format!(
                "journal block record carries unknown status '{other}'"
            )))
        }
    };
    Ok(BlockExecution {
        block: rec.block.clone(),
        status,
        duration: Duration::from_nanos(rec.duration_ns),
        error: rec.error.clone(),
        attempts: rec.attempts,
        backoff: Duration::from_nanos(rec.backoff_ns),
    })
}

/// Split an instance status into the `(label, detail)` pair journaled in
/// `InstanceFinished` records.
pub fn status_parts(status: &InstanceStatus) -> (String, Option<String>) {
    let detail = match status {
        InstanceStatus::Failed(block) | InstanceStatus::RolledBack(block) => Some(block.clone()),
        _ => None,
    };
    (status.label().to_string(), detail)
}

/// Rebuild an instance status from its journaled `(label, detail)` pair.
pub fn status_from_parts(label: &str, detail: Option<&str>) -> Result<InstanceStatus> {
    match label {
        "completed" => Ok(InstanceStatus::Completed),
        "failed" => Ok(InstanceStatus::Failed(detail.unwrap_or_default().into())),
        "rolled_back" => Ok(InstanceStatus::RolledBack(
            detail.unwrap_or_default().into(),
        )),
        other => Err(CornetError::DataIntegrity(format!(
            "journal instance record carries unknown status '{other}'"
        ))),
    }
}

/// Fold a recovered event stream into campaign state: the
/// [`CampaignFold`], keeping the reports a resume re-admits, plus the
/// replay rows of the instances it left in flight.
pub fn recover_campaign(events: &[JournalEvent], recovery: Recovery) -> Result<RecoveredCampaign> {
    let mut fold = CampaignFold {
        replay: true,
        ..CampaignFold::default()
    };
    for event in events {
        fold.apply(event)?;
    }
    if !fold.opened {
        return Err(CornetError::DataIntegrity(
            "journal does not begin with a campaign_opened record".into(),
        ));
    }
    // Rows borrow their record's state map until here: only an instance
    // that never finished replays it, so only its rows copy it.
    let partial = fold
        .open
        .into_iter()
        .map(|(key, rows)| {
            let rows = rows
                .into_iter()
                .filter_map(|(exec, at)| match events.get(at) {
                    Some(JournalEvent::BlockCompleted(rec)) => Some(ReplayRow {
                        exec,
                        state: rec.state.clone(),
                        backout: rec.backout,
                    }),
                    _ => None,
                })
                .collect();
            (key, rows)
        })
        .collect();
    Ok(RecoveredCampaign {
        partial,
        recovery,
        ..fold.campaign
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_types::ParamValue;

    fn opened() -> JournalEvent {
        JournalEvent::CampaignOpened {
            meta: BTreeMap::from([("scenario".to_string(), "test".to_string())]),
            assignments: vec![(0, 1), (1, 1), (2, 2)],
            concurrency: 2,
        }
    }

    fn record(node: u32, slot: u32, block: &str, status: &str) -> BlockRecord {
        BlockRecord {
            node,
            slot,
            block: block.into(),
            status: status.into(),
            attempts: 1,
            duration_ns: 1_000,
            backoff_ns: 0,
            error: None,
            backout: false,
            state: BTreeMap::from([("k".to_string(), ParamValue::from(true))]),
        }
    }

    #[test]
    fn missing_opening_record_is_corruption() {
        let events = vec![JournalEvent::InstanceAdmitted { node: 0, slot: 1 }];
        let err = recover_campaign(&events, Recovery::default()).unwrap_err();
        assert!(matches!(err, CornetError::DataIntegrity(_)), "{err}");
        assert!(recover_campaign(&[], Recovery::default()).is_err());
    }

    #[test]
    fn finished_instances_are_complete_and_partials_keep_rows() {
        let events = vec![
            opened(),
            JournalEvent::InstanceAdmitted { node: 0, slot: 1 },
            JournalEvent::InstanceAdmitted { node: 1, slot: 1 },
            JournalEvent::BlockCompleted(record(0, 1, "health_check", "success")),
            JournalEvent::BlockCompleted(record(0, 1, "software_upgrade", "success")),
            JournalEvent::InstanceFinished {
                node: 0,
                slot: 1,
                status: "completed".into(),
                detail: None,
            },
            JournalEvent::BlockCompleted(record(1, 1, "health_check", "success")),
        ];
        let campaign = recover_campaign(&events, Recovery::default()).unwrap();
        assert_eq!(campaign.schedule.assignments.len(), 3);
        assert_eq!(campaign.concurrency, 2);
        let done = &campaign.completed[&(1, 0)];
        assert_eq!(done.status, InstanceStatus::Completed);
        assert_eq!(done.blocks.len(), 2);
        // Node 1 crashed after one block: one replay row, still partial.
        assert_eq!(campaign.partial[&(1, 1)].len(), 1);
        assert_eq!(campaign.partial[&(1, 1)][0].exec.block, "health_check");
        assert_eq!(
            campaign.partial[&(1, 1)][0].state["k"],
            ParamValue::from(true)
        );
        // Node 2 never admitted: absent from both maps.
        assert!(!campaign.partial.contains_key(&(2, 2)));
        assert!(!campaign.closed);
    }

    #[test]
    fn trip_and_close_markers_survive() {
        let events = vec![
            opened(),
            JournalEvent::BreakerTripped {
                block: "software_upgrade".into(),
                failure_rate: 0.75,
                samples: 4,
            },
            JournalEvent::CampaignClosed(Some(Halt {
                ordered: 0,
                cancelled: false,
            })),
        ];
        let campaign = recover_campaign(&events, Recovery::default()).unwrap();
        let trip = campaign.trip.expect("trip recorded");
        assert_eq!(trip.block, "software_upgrade");
        assert_eq!(trip.samples, 4);
        assert!(campaign.closed);
    }

    fn finished(node: u32, status: &str) -> JournalEvent {
        JournalEvent::InstanceFinished {
            node,
            slot: 1,
            status: status.into(),
            detail: (status != "completed").then(|| "software_upgrade".into()),
        }
    }

    /// Nodes 0 and 1 in slot 1, node 2 in slot 2: node 0 completes, node
    /// 1 fails, node 2 never finishes.
    fn two_finished() -> Vec<JournalEvent> {
        vec![
            opened(),
            JournalEvent::InstanceAdmitted { node: 0, slot: 1 },
            JournalEvent::InstanceAdmitted { node: 1, slot: 1 },
            JournalEvent::BlockCompleted(record(1, 1, "software_upgrade", "failed")),
            finished(1, "failed"),
            JournalEvent::BlockCompleted(record(0, 1, "health_check", "success")),
            finished(0, "completed"),
        ]
    }

    fn closed(ordered: u32, cancelled: bool) -> JournalEvent {
        JournalEvent::CampaignClosed(Some(Halt { ordered, cancelled }))
    }

    fn fold_all(events: &[JournalEvent]) -> Result<CampaignFold> {
        let mut fold = CampaignFold::default();
        events.iter().try_for_each(|e| fold.apply(e))?;
        Ok(fold)
    }

    #[test]
    fn a_close_folds_to_the_summary_of_its_ordered_prefix() {
        let mut events = two_finished();
        events.push(closed(1, true));
        let fold = fold_all(&events).unwrap();
        assert_eq!(
            (fold.events(), fold.blocks(), fold.instances_done()),
            (8, 2, 2)
        );
        let result = fold.result().expect("closed");
        let recovered = recover_campaign(&events, Recovery::default()).unwrap();
        let prefix = DispatchReport {
            instances: vec![recovered.completed[&(1, 0)].clone()],
            drained: Vec::new(),
        };
        // Node 1 finished too, but past the prefix: it drained.
        assert_eq!(
            *result,
            CampaignResult {
                fingerprint: report_fingerprint(&prefix),
                completed: 1,
                failed: 0,
                rolled_back: 0,
                trip: None,
                cancelled: true,
            }
        );
        // A cancel before anything ran reports the empty report.
        let result = fold_all(&[opened(), closed(0, true)])
            .unwrap()
            .result()
            .cloned();
        let empty = report_fingerprint(&DispatchReport::default());
        assert_eq!(
            result.map(|r| (r.fingerprint, r.cancelled)),
            Some((empty, true))
        );
    }

    #[test]
    fn after_a_close_the_fold_keeps_its_summary_and_recovery_keeps_the_reports() {
        let mut events = two_finished();
        events.push(closed(2, false));
        let fold = fold_all(&events).unwrap();
        assert!(fold.campaign.completed.is_empty() && fold.open.is_empty());
        assert_eq!(fold.in_flight(), 0);
        assert_eq!(fold.result().map(|r| (r.completed, r.failed)), Some((1, 1)));
        let recovered = recover_campaign(&events, Recovery::default()).unwrap();
        assert!(recovered.closed);
        assert_eq!(recovered.completed.len(), 2);
        // A resume reopens the campaign: its run writes its own close.
        events.push(JournalEvent::CampaignResumed {
            meta: BTreeMap::new(),
        });
        let recovered = recover_campaign(&events, Recovery::default()).unwrap();
        assert!(!recovered.closed);
        assert_eq!(recovered.completed.len(), 2);
    }

    #[test]
    fn a_close_that_orders_what_never_finished_is_a_typed_error_never_a_panic() {
        for bad in [
            // A bare close reports the whole schedule.
            JournalEvent::CampaignClosed(None),
            closed(3, false),
            // Past the schedule's three instances.
            closed(4, false),
            closed(u32::MAX, true),
        ] {
            let mut events = two_finished();
            events.push(bad.clone());
            let err = fold_all(&events).unwrap_err();
            assert!(
                matches!(err, CornetError::DataIntegrity(_)),
                "{bad:?}: {err}"
            );
            let err = recover_campaign(&events, Recovery::default()).unwrap_err();
            assert!(
                matches!(err, CornetError::DataIntegrity(_)),
                "{bad:?}: {err}"
            );
        }
        // Records before the opening one are refused, and still counted.
        let mut fold = CampaignFold::default();
        assert!(fold.apply(&finished(0, "completed")).is_err());
        assert_eq!((fold.events(), fold.meta()), (1, None));
    }

    #[test]
    fn status_round_trips() {
        for status in [
            InstanceStatus::Completed,
            InstanceStatus::Failed("software_upgrade".into()),
            InstanceStatus::RolledBack("software_upgrade".into()),
        ] {
            let (label, detail) = status_parts(&status);
            assert_eq!(
                status_from_parts(&label, detail.as_deref()).unwrap(),
                status
            );
        }
        assert!(status_from_parts("running", None).is_err());
    }

    #[test]
    fn block_record_round_trips_every_status() {
        let statuses = [
            BlockStatus::Success,
            BlockStatus::Failed,
            BlockStatus::TimedOut,
            BlockStatus::Recovered { attempts: 3 },
        ];
        for status in statuses {
            let exec = BlockExecution {
                block: "software_upgrade".into(),
                status,
                duration: Duration::from_millis(7),
                error: (!status.is_success()).then(|| "boom".to_string()),
                attempts: match status {
                    BlockStatus::Recovered { attempts } => attempts,
                    _ => 1,
                },
                backoff: Duration::from_millis(2),
            };
            let state = BTreeMap::from([("x".to_string(), ParamValue::from(1i64))]);
            let rec = block_record(NodeId(4), Timeslot(2), &exec, &state, true);
            assert_eq!(exec_from_record(&rec).unwrap(), exec);
            assert!(rec.backout);
            assert_eq!(rec.state, state);
        }
        assert!(exec_from_record(&record(0, 1, "b", "bogus")).is_err());
    }
}
