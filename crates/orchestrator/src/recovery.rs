//! Journal replay: reconstruct a crashed campaign from its event log.
//!
//! [`recover_campaign`] folds the surviving [`JournalEvent`] stream into a
//! [`RecoveredCampaign`]: instances the log proves finished (with their
//! full reports), instances interrupted mid-flight (with the replay rows
//! needed to restore their completed prefix), the recorded breaker trip,
//! and whether the campaign had already closed cleanly. The dispatcher's
//! `resume_from_journal` then re-runs only what the log cannot prove done.

use crate::dispatcher::InstanceReport;
use crate::engine::{BlockExecution, BlockStatus, InstanceStatus, ReplayRow};
use crate::resilience::BreakerTrip;
use cornet_journal::{BlockRecord, JournalEvent, Recovery};
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
    /// Breaker trip recorded before the crash, if any.
    pub trip: Option<BreakerTrip>,
    /// True when a `CampaignClosed` record survives — nothing to resume.
    pub closed: bool,
    /// Torn-tail statistics from opening the journal.
    pub recovery: Recovery,
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

/// Fold a recovered event stream into campaign state.
///
/// The first record must be `CampaignOpened` — a journal that lost its
/// opening record lost its schedule and cannot be resumed safely, so that
/// is corruption, not an empty campaign.
pub fn recover_campaign(events: &[JournalEvent], recovery: Recovery) -> Result<RecoveredCampaign> {
    let Some(JournalEvent::CampaignOpened {
        meta,
        assignments,
        concurrency,
    }) = events.first()
    else {
        return Err(CornetError::DataIntegrity(
            "journal does not begin with a campaign_opened record".into(),
        ));
    };
    let mut schedule = Schedule::default();
    for &(node, slot) in assignments {
        schedule.assignments.insert(NodeId(node), Timeslot(slot));
    }
    let mut campaign = RecoveredCampaign {
        meta: meta.clone(),
        schedule,
        concurrency: *concurrency as usize,
        recovery,
        ..RecoveredCampaign::default()
    };
    // Rows borrow their record's state map until the fold is over: only
    // an instance that never finished replays it, so only its rows copy it.
    let mut open: BTreeMap<(u32, u32), Vec<(BlockExecution, &BlockRecord)>> = BTreeMap::new();
    for event in &events[1..] {
        match event {
            JournalEvent::CampaignOpened { .. } => {
                return Err(CornetError::DataIntegrity(
                    "journal contains a second campaign_opened record".into(),
                ));
            }
            // A resume marker from a previous recovery pass; the replay
            // state folds through unchanged.
            JournalEvent::CampaignResumed { .. } => {}
            JournalEvent::InstanceAdmitted { node, slot } => {
                open.entry((*slot, *node)).or_default();
            }
            JournalEvent::BlockCompleted(rec) => {
                open.entry((rec.slot, rec.node))
                    .or_default()
                    .push((exec_from_record(rec)?, rec));
            }
            JournalEvent::InstanceFinished {
                node,
                slot,
                status,
                detail,
            } => {
                let rows = open.remove(&(*slot, *node)).unwrap_or_default();
                campaign.completed.insert(
                    (*slot, *node),
                    InstanceReport {
                        node: NodeId(*node),
                        slot: Timeslot(*slot),
                        status: status_from_parts(status, detail.as_deref())?,
                        blocks: rows.into_iter().map(|(exec, _)| exec).collect(),
                    },
                );
            }
            JournalEvent::BreakerTripped {
                block,
                failure_rate,
                samples,
            } => {
                campaign.trip = Some(BreakerTrip {
                    block: block.clone(),
                    failure_rate: *failure_rate,
                    samples: *samples as usize,
                });
            }
            JournalEvent::CampaignClosed => campaign.closed = true,
        }
    }
    campaign.partial = open
        .into_iter()
        .map(|(key, rows)| {
            let rows = rows
                .into_iter()
                .map(|(exec, rec)| ReplayRow {
                    exec,
                    state: rec.state.clone(),
                    backout: rec.backout,
                })
                .collect();
            (key, rows)
        })
        .collect();
    Ok(campaign)
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
            JournalEvent::CampaignClosed,
        ];
        let campaign = recover_campaign(&events, Recovery::default()).unwrap();
        let trip = campaign.trip.expect("trip recorded");
        assert_eq!(trip.block, "software_upgrade");
        assert_eq!(trip.samples, 4);
        assert!(campaign.closed);
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
