//! Change-management domain types: change categories, tickets, and the
//! conflict table fed to the planner.
//!
//! Table 1 of the paper breaks network changes into four categories with
//! very different durations and roll-out profiles; Listing 1 shows the
//! conflict table keyed by node with ticketed busy periods.

use crate::id::NodeId;
use crate::time::{SimTime, Timeslot};
use std::collections::BTreeMap;
use std::fmt;

/// Category of a network change (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChangeType {
    /// Software upgrade of a node.
    SoftwareUpgrade,
    /// Configuration change.
    ConfigChange,
    /// Spectrum re-tuning (e.g. carving LTE carriers for 5G).
    NodeRetuning,
    /// Construction work (tower adds, hardware swaps) requiring site visits.
    ConstructionWork,
}

impl ChangeType {
    /// All categories in Table 1 order.
    pub const ALL: [ChangeType; 4] = [
        ChangeType::SoftwareUpgrade,
        ChangeType::ConfigChange,
        ChangeType::NodeRetuning,
        ChangeType::ConstructionWork,
    ];

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ChangeType::SoftwareUpgrade => "software_upgrade",
            ChangeType::ConfigChange => "config_change",
            ChangeType::NodeRetuning => "node_retuning",
            ChangeType::ConstructionWork => "construction_work",
        }
    }
}

impl fmt::Display for ChangeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An executed (or scheduled) change on one node — a row of the change log.
#[derive(Clone, Debug, PartialEq)]
pub struct ChangeTicket {
    /// Ticket identifier shared by all nodes of one change activity.
    pub ticket: String,
    /// Node the work happened on.
    pub node: NodeId,
    /// Category.
    pub change_type: ChangeType,
    /// When the work started.
    pub start: SimTime,
    /// Duration in maintenance windows.
    pub duration_windows: u32,
}

/// A busy period from the ticketing system: the node cannot take other
/// changes while an existing ticket occupies it (Listing 1 lines 42–63).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictEntry {
    /// Start of the busy period (inclusive).
    pub start: SimTime,
    /// End of the busy period (inclusive).
    pub end: SimTime,
    /// Tickets responsible for the busy period.
    pub tickets: Vec<String>,
}

impl ConflictEntry {
    /// Whether the busy period overlaps `[from, to]`.
    pub fn overlaps(&self, from: SimTime, to: SimTime) -> bool {
        self.start <= to && self.end >= from
    }
}

/// Per-node busy periods extracted from the ticketing system.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConflictTable {
    entries: BTreeMap<NodeId, Vec<ConflictEntry>>,
}

impl ConflictTable {
    /// Empty conflict table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a busy period for a node.
    pub fn add(&mut self, node: NodeId, entry: ConflictEntry) {
        self.entries.entry(node).or_default().push(entry);
    }

    /// Busy periods of a node.
    pub fn entries_of(&self, node: NodeId) -> &[ConflictEntry] {
        self.entries.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of nodes with at least one busy period.
    pub fn node_count(&self) -> usize {
        self.entries.len()
    }

    /// Count conflicting tickets if `node` were worked during `[from, to]`.
    pub fn conflicts_in(&self, node: NodeId, from: SimTime, to: SimTime) -> usize {
        self.entries_of(node)
            .iter()
            .filter(|e| e.overlaps(from, to))
            .map(|e| e.tickets.len().max(1))
            .sum()
    }

    /// Nodes that have any busy period.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.keys().copied()
    }
}

/// A discovered schedule: one timeslot per node, plus leftovers that did
/// not fit in the scheduling window (Algorithm 1 lines 8–10).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schedule {
    /// Node → assigned slot. Nodes absent from the map are unscheduled.
    pub assignments: BTreeMap<NodeId, Timeslot>,
    /// Nodes that could not be placed inside the window.
    pub leftovers: Vec<NodeId>,
    /// Number of ticket conflicts the schedule incurs (0 under zero
    /// conflict tolerance).
    pub conflicts: usize,
}

impl Schedule {
    /// Latest used slot (the makespan), or `None` for an empty schedule.
    pub fn makespan(&self) -> Option<Timeslot> {
        self.assignments.values().max().copied()
    }

    /// Weighted total completion time: Σ slot × (#nodes in slot) (Eq. 6).
    pub fn weighted_completion_time(&self) -> u64 {
        let mut per_slot: BTreeMap<Timeslot, u64> = BTreeMap::new();
        for slot in self.assignments.values() {
            *per_slot.entry(*slot).or_default() += 1;
        }
        per_slot.iter().map(|(slot, n)| slot.0 as u64 * n).sum()
    }

    /// Number of scheduled nodes.
    pub fn scheduled_count(&self) -> usize {
        self.assignments.len()
    }

    /// Nodes assigned to a given slot, in id order.
    pub fn nodes_in_slot(&self, slot: Timeslot) -> Vec<NodeId> {
        self.assignments
            .iter()
            .filter(|(_, s)| **s == slot)
            .map(|(n, _)| *n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(day: u32) -> SimTime {
        SimTime::from_ymd_hm(2020, 7, day, 0, 0)
    }

    #[test]
    fn conflict_overlap() {
        let e = ConflictEntry {
            start: t(1),
            end: t(4),
            tickets: vec!["A".into()],
        };
        assert!(e.overlaps(t(4), t(6)));
        assert!(e.overlaps(t(2), t(3)));
        assert!(!e.overlaps(t(5), t(6)));
    }

    #[test]
    fn conflict_table_counts_tickets() {
        let mut ct = ConflictTable::new();
        ct.add(
            NodeId(1),
            ConflictEntry {
                start: t(3),
                end: t(5),
                tickets: vec!["A".into(), "B".into()],
            },
        );
        ct.add(
            NodeId(1),
            ConflictEntry {
                start: t(7),
                end: t(15),
                tickets: vec!["C".into()],
            },
        );
        assert_eq!(ct.conflicts_in(NodeId(1), t(4), t(4)), 2);
        assert_eq!(ct.conflicts_in(NodeId(1), t(6), t(6)), 0);
        assert_eq!(ct.conflicts_in(NodeId(1), t(4), t(8)), 3);
        assert_eq!(ct.conflicts_in(NodeId(2), t(1), t(30)), 0);
        assert_eq!(ct.node_count(), 1);
    }

    #[test]
    fn schedule_metrics() {
        let mut s = Schedule::default();
        s.assignments.insert(NodeId(0), Timeslot(1));
        s.assignments.insert(NodeId(1), Timeslot(1));
        s.assignments.insert(NodeId(2), Timeslot(3));
        assert_eq!(s.makespan(), Some(Timeslot(3)));
        // 1*2 + 3*1 = 5
        assert_eq!(s.weighted_completion_time(), 5);
        assert_eq!(s.nodes_in_slot(Timeslot(1)), vec![NodeId(0), NodeId(1)]);
        assert_eq!(s.scheduled_count(), 3);
    }
}
