//! Appendix C: the custom local-search heuristic for eNodeB/gNodeB
//! scheduling at the scale generic solvers cannot reach (tens to hundreds
//! of thousands of nodes).
//!
//! Faithful to Algorithm 1: timezones are sorted by UTC offset and
//! scheduled sequentially; within a timezone the search repeatedly draws a
//! market permutation, walks markets in order (localize), schedules whole
//! USIDs at a time (consistency), sorts TACs by conflicts-then-size
//! ("schedule less-conflicting large TACs as soon as possible"), respects
//! per-slot capacity, and keeps the lexicographically best
//! ⟨conflicts, weighted-completion-time⟩ schedule. Nodes that do not fit
//! inside the window become leftovers for a later request.

use cornet_types::{ConflictTable, Inventory, NodeId, Schedule, SchedulingWindow, Timeslot};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Heuristic configuration.
#[derive(Clone, Debug)]
pub struct HeuristicConfig {
    /// RNG seed for market permutations.
    pub seed: u64,
    /// Capacity per timeslot, in nodes.
    pub slot_capacity: i64,
    /// Market permutations tried per timezone (the paper's wall-clock
    /// stopping criterion, made deterministic).
    pub iterations: usize,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig {
            seed: 1,
            slot_capacity: 200,
            iterations: 8,
        }
    }
}

/// Hierarchy extracted from the inventory for the bundles in scope.
struct Instance {
    /// Timezones sorted by UTC offset descending (east → west).
    timezones: Vec<TzGroup>,
}

struct TzGroup {
    markets: Vec<MarketGroup>,
}

struct MarketGroup {
    tacs: Vec<TacGroup>,
}

struct TacGroup {
    /// Atomic bundle ids (indices into the shared bundle list).
    bundles: Vec<usize>,
    /// Total node count.
    size: usize,
}

/// Group atomic bundles into the tz → market → tac hierarchy Algorithm 1
/// walks. Each bundle is classified by its first node's attributes — a
/// bundle is by definition scheduled as one unit, so one representative
/// suffices. A missing or non-numeric `utc_offset` degrades gracefully to
/// offset 0 (one shared timezone group) instead of panicking on sparse
/// inventories.
fn build_instance(inventory: &Inventory, bundles: &[Vec<NodeId>]) -> Instance {
    type TacMap = BTreeMap<String, Vec<usize>>;
    type MarketMap = BTreeMap<String, TacMap>;
    let mut tree: BTreeMap<i64, MarketMap> = BTreeMap::new();
    for (id, bundle) in bundles.iter().enumerate() {
        let Some(&n) = bundle.first() else { continue };
        let tz = inventory
            .attr_of(n, "utc_offset")
            .and_then(|v| v.as_f64())
            .map_or(0, |v| (v * 1000.0).round() as i64);
        let market = inventory
            .group_key_of(n, "market")
            .unwrap_or_else(|| "-".into());
        let tac = inventory
            .group_key_of(n, "tac")
            .unwrap_or_else(|| "-".into());
        tree.entry(tz)
            .or_default()
            .entry(market)
            .or_default()
            .entry(tac)
            .or_default()
            .push(id);
    }
    // Descending offset: the east coast schedules first.
    let timezones = tree
        .into_iter()
        .rev()
        .map(|(_, markets)| TzGroup {
            markets: markets
                .into_values()
                .map(|tacs| MarketGroup {
                    tacs: tacs
                        .into_values()
                        .map(|ids| {
                            let size = ids.iter().map(|&id| bundles[id].len()).sum();
                            TacGroup { bundles: ids, size }
                        })
                        .collect(),
                })
                .collect(),
        })
        .collect();
    Instance { timezones }
}

/// Sparse per-node conflict counts by usable-slot index.
fn conflict_index(
    conflicts: &ConflictTable,
    window: &SchedulingWindow,
    slots: &[Timeslot],
) -> BTreeMap<NodeId, Vec<usize>> {
    let mut map = BTreeMap::new();
    for node in conflicts.nodes() {
        let per_slot: Vec<usize> = slots
            .iter()
            .map(|&s| {
                let (start, end) = window.slot_period(s);
                conflicts.conflicts_in(node, start, end)
            })
            .collect();
        if per_slot.iter().any(|c| *c > 0) {
            map.insert(node, per_slot);
        }
    }
    map
}

struct Attempt {
    /// bundle id → usable-slot index.
    assignments: Vec<(usize, usize)>,
    /// Bundle ids that did not fit.
    leftovers: Vec<usize>,
    conflicts: usize,
    wtct: u64,
}

/// One construction pass for a fixed market permutation (Algorithm 1
/// lines 4–20).
fn construct(
    markets: &[&MarketGroup],
    bundles: &[Vec<NodeId>],
    start_slot: usize,
    remaining: &[i64],
    conflict_idx: &BTreeMap<NodeId, Vec<usize>>,
    n_slots: usize,
) -> (Attempt, Vec<i64>) {
    let mut cap = remaining.to_vec();
    let mut attempt = Attempt {
        assignments: Vec::new(),
        leftovers: Vec::new(),
        conflicts: 0,
        wtct: 0,
    };
    let mut curr = start_slot;
    let mut out_of_slots = false;

    let tac_conflicts = |tac: &TacGroup, slot: usize| -> usize {
        tac.bundles
            .iter()
            .flat_map(|&id| &bundles[id])
            .filter_map(|n| conflict_idx.get(n).map(|v| v[slot]))
            .sum()
    };

    for market in markets {
        if out_of_slots {
            for tac in &market.tacs {
                attempt.leftovers.extend(tac.bundles.iter().copied());
            }
            continue;
        }
        // Remaining TACs of this market, by index.
        let mut rem: Vec<usize> = (0..market.tacs.len()).collect();
        // Per-TAC set of unscheduled bundle positions.
        let mut rem_bundles: Vec<Vec<usize>> = market
            .tacs
            .iter()
            .map(|t| (0..t.bundles.len()).collect())
            .collect();
        while !rem.is_empty() {
            if curr >= n_slots {
                for &ti in &rem {
                    for &bi in &rem_bundles[ti] {
                        attempt.leftovers.push(market.tacs[ti].bundles[bi]);
                    }
                }
                out_of_slots = true;
                break;
            }
            if cap[curr] == 0 {
                curr += 1;
                continue;
            }
            // Sort by conflicts on the current slot, then by size descending.
            rem.sort_by_key(|&ti| {
                (
                    tac_conflicts(&market.tacs[ti], curr),
                    usize::MAX - market.tacs[ti].size,
                )
            });
            let mut progress = false;
            for &ti in &rem.clone() {
                let tac = &market.tacs[ti];
                rem_bundles[ti].retain(|&bi| {
                    let id = tac.bundles[bi];
                    let bundle = &bundles[id];
                    if cap[curr] >= bundle.len() as i64 {
                        cap[curr] -= bundle.len() as i64;
                        attempt.assignments.push((id, curr));
                        for n in bundle {
                            if let Some(v) = conflict_idx.get(n) {
                                attempt.conflicts += v[curr];
                            }
                        }
                        attempt.wtct += (curr as u64 + 1) * bundle.len() as u64;
                        progress = true;
                        false // scheduled: drop from remaining
                    } else {
                        true
                    }
                });
            }
            rem.retain(|&ti| !rem_bundles[ti].is_empty());
            if !progress {
                // Slot has spare capacity but no bundle fits — move on.
                curr += 1;
            }
        }
    }
    (attempt, cap)
}

/// Run Algorithm 1 over pre-formed atomic `bundles`. Returns the decoded
/// schedule plus the usable-slot index each bundle landed on (`None` =
/// leftover) — the shared-IR shape the [`crate::backend`] layer consumes.
fn run_algorithm1(
    inventory: &Inventory,
    bundles: &[Vec<NodeId>],
    conflicts: &ConflictTable,
    window: &SchedulingWindow,
    config: &HeuristicConfig,
) -> (Schedule, Vec<Option<usize>>) {
    let slots = window.usable_slots();
    let n_slots = slots.len();
    let mut schedule = Schedule::default();
    let mut placement: Vec<Option<usize>> = vec![None; bundles.len()];
    if n_slots == 0 {
        schedule.leftovers = bundles.iter().flatten().copied().collect();
        return (schedule, placement);
    }
    let instance = build_instance(inventory, bundles);
    let conflict_idx = conflict_index(conflicts, window, &slots);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut remaining = vec![config.slot_capacity; n_slots];
    let mut start_slot = 0usize;

    for tz in &instance.timezones {
        let mut best: Option<(Attempt, Vec<i64>)> = None;
        for _ in 0..config.iterations.max(1) {
            let mut perm: Vec<&MarketGroup> = tz.markets.iter().collect();
            perm.shuffle(&mut rng);
            let (attempt, cap) = construct(
                &perm,
                bundles,
                start_slot,
                &remaining,
                &conflict_idx,
                n_slots,
            );
            let better = match &best {
                None => true,
                Some((b, _)) => {
                    (attempt.conflicts, attempt.leftovers.len(), attempt.wtct)
                        < (b.conflicts, b.leftovers.len(), b.wtct)
                }
            };
            if better {
                best = Some((attempt, cap));
            }
        }
        let (attempt, cap) = best.expect("at least one iteration ran");
        for &(id, slot_idx) in &attempt.assignments {
            placement[id] = Some(slot_idx);
            for &n in &bundles[id] {
                schedule.assignments.insert(n, slots[slot_idx]);
            }
        }
        for &id in &attempt.leftovers {
            schedule.leftovers.extend(bundles[id].iter().copied());
        }
        schedule.conflicts += attempt.conflicts;
        remaining = cap;
        // Next timezone starts at the last slot that still has spare
        // capacity among the slots we touched (Algorithm 1's
        // start_timeslot bookkeeping) — adjacent-timezone border sharing.
        let last_used = last_used_slot(&schedule, &slots);
        start_slot = remaining
            .iter()
            .enumerate()
            .rev()
            .find(|(i, c)| **c > 0 && *i <= last_used)
            .map(|(i, _)| i)
            .unwrap_or(0);
    }
    (schedule, placement)
}

/// Run Algorithm 1 over `nodes` inside `window`, bundling nodes that share
/// a `usid` (consistency).
pub fn heuristic_schedule(
    inventory: &Inventory,
    nodes: &[NodeId],
    conflicts: &ConflictTable,
    window: &SchedulingWindow,
    config: &HeuristicConfig,
) -> Schedule {
    // usid → nodes; nodes without a usid are singleton bundles.
    let mut by_usid: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
    for &n in nodes {
        let usid = inventory
            .group_key_of(n, "usid")
            .unwrap_or_else(|| n.to_string());
        by_usid.entry(usid).or_default().push(n);
    }
    let bundles: Vec<Vec<NodeId>> = by_usid.into_values().collect();
    run_algorithm1(inventory, &bundles, conflicts, window, config).0
}

/// Run Algorithm 1 over pre-formed schedulable units — the shared
/// [`crate::translate::Translation`] IR every backend consumes. Each unit
/// is atomic (ESA grouping and consistency contraction already applied);
/// the returned vector gives each unit's usable-slot index (`None` =
/// leftover), directly convertible to a model assignment.
pub fn heuristic_schedule_units(
    inventory: &Inventory,
    units: &[Vec<NodeId>],
    conflicts: &ConflictTable,
    window: &SchedulingWindow,
    config: &HeuristicConfig,
) -> (Schedule, Vec<Option<usize>>) {
    run_algorithm1(inventory, units, conflicts, window, config)
}

fn last_used_slot(schedule: &Schedule, slots: &[Timeslot]) -> usize {
    schedule
        .makespan()
        .and_then(|m| slots.iter().position(|s| *s == m))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_types::{Attributes, NfType, SimTime};

    /// 2 timezones × 2 markets × 2 TACs × 3 USIDs × 2 nodes = 48 nodes.
    fn ran_inventory() -> Inventory {
        let mut inv = Inventory::new();
        for tz in 0..2 {
            for m in 0..2 {
                for t in 0..2 {
                    for u in 0..3 {
                        for n in 0..2 {
                            inv.push(
                                format!("n-{tz}{m}{t}{u}{n}"),
                                if n == 0 {
                                    NfType::ENodeB
                                } else {
                                    NfType::GNodeB
                                },
                                Attributes::new()
                                    .with("utc_offset", -5.0 - tz as f64)
                                    .with("market", format!("TZ{tz}-M{m}"))
                                    .with("tac", format!("TZ{tz}-M{m}-T{t}"))
                                    .with("usid", format!("TZ{tz}-M{m}-T{t}-U{u}")),
                            );
                        }
                    }
                }
            }
        }
        inv
    }

    fn window(days: u32) -> SchedulingWindow {
        SchedulingWindow::daily(SimTime::from_ymd_hm(2020, 7, 1, 0, 0), days)
    }

    #[test]
    fn schedules_everything_with_room() {
        let inv = ran_inventory();
        let nodes: Vec<NodeId> = inv.ids().collect();
        let cfg = HeuristicConfig {
            slot_capacity: 12,
            iterations: 4,
            seed: 1,
        };
        let s = heuristic_schedule(&inv, &nodes, &ConflictTable::new(), &window(10), &cfg);
        assert_eq!(s.scheduled_count(), 48);
        assert!(s.leftovers.is_empty());
        assert_eq!(s.conflicts, 0);
    }

    #[test]
    fn respects_slot_capacity() {
        let inv = ran_inventory();
        let nodes: Vec<NodeId> = inv.ids().collect();
        let cfg = HeuristicConfig {
            slot_capacity: 6,
            iterations: 2,
            seed: 1,
        };
        let s = heuristic_schedule(&inv, &nodes, &ConflictTable::new(), &window(20), &cfg);
        let mut per_slot: BTreeMap<Timeslot, usize> = BTreeMap::new();
        for slot in s.assignments.values() {
            *per_slot.entry(*slot).or_default() += 1;
        }
        assert!(per_slot.values().all(|&c| c <= 6), "{per_slot:?}");
        assert_eq!(s.scheduled_count(), 48);
    }

    #[test]
    fn usids_stay_atomic() {
        let inv = ran_inventory();
        let nodes: Vec<NodeId> = inv.ids().collect();
        let cfg = HeuristicConfig {
            slot_capacity: 7,
            iterations: 3,
            seed: 2,
        };
        let s = heuristic_schedule(&inv, &nodes, &ConflictTable::new(), &window(20), &cfg);
        for pair in nodes.chunks(2) {
            // Consecutive node pairs share a USID by construction.
            assert_eq!(
                s.assignments.get(&pair[0]),
                s.assignments.get(&pair[1]),
                "USID split across slots"
            );
        }
    }

    #[test]
    fn window_overflow_creates_leftovers() {
        let inv = ran_inventory();
        let nodes: Vec<NodeId> = inv.ids().collect();
        let cfg = HeuristicConfig {
            slot_capacity: 10,
            iterations: 2,
            seed: 1,
        };
        let s = heuristic_schedule(&inv, &nodes, &ConflictTable::new(), &window(2), &cfg);
        assert!(s.scheduled_count() <= 20);
        assert_eq!(s.scheduled_count() + s.leftovers.len(), 48);
        assert!(!s.leftovers.is_empty());
    }

    #[test]
    fn conflicts_steer_tac_ordering() {
        let inv = ran_inventory();
        let nodes: Vec<NodeId> = inv.ids().collect();
        // Make the first TAC's nodes busy on day 1.
        let mut ct = ConflictTable::new();
        for &n in &nodes[..6] {
            ct.add(
                n,
                cornet_types::ConflictEntry {
                    start: SimTime::from_ymd_hm(2020, 7, 1, 0, 0),
                    end: SimTime::from_ymd_hm(2020, 7, 1, 23, 59),
                    tickets: vec!["BUSY".into()],
                },
            );
        }
        let cfg = HeuristicConfig {
            slot_capacity: 8,
            iterations: 6,
            seed: 3,
        };
        let s = heuristic_schedule(&inv, &nodes, &ct, &window(15), &cfg);
        assert_eq!(s.conflicts, 0, "heuristic avoids the busy day");
        assert_eq!(s.scheduled_count(), 48);
    }

    #[test]
    fn timezones_schedule_east_before_west() {
        let inv = ran_inventory();
        let nodes: Vec<NodeId> = inv.ids().collect();
        let cfg = HeuristicConfig {
            slot_capacity: 6,
            iterations: 2,
            seed: 1,
        };
        let s = heuristic_schedule(&inv, &nodes, &ConflictTable::new(), &window(20), &cfg);
        let avg_slot = |tz: f64| {
            let slots: Vec<u32> = nodes
                .iter()
                .filter(|n| {
                    inv.attr_of(**n, "utc_offset")
                        .and_then(|v| v.as_f64())
                        .is_some_and(|v| v == tz)
                })
                .filter_map(|n| s.assignments.get(n).map(|t| t.0))
                .collect();
            slots.iter().sum::<u32>() as f64 / slots.len() as f64
        };
        assert!(avg_slot(-5.0) < avg_slot(-6.0), "east first");
    }

    /// Regression: an inventory with no `utc_offset` attribute (sparse or
    /// non-RAN data) must fall back to one timezone group instead of
    /// panicking on a double `unwrap()`.
    #[test]
    fn missing_utc_offset_defaults_to_one_timezone() {
        let mut inv = Inventory::new();
        for i in 0..6 {
            inv.push(
                format!("bare-{i}"),
                NfType::ENodeB,
                Attributes::new().with("market", "M0"),
            );
        }
        let nodes: Vec<NodeId> = inv.ids().collect();
        let cfg = HeuristicConfig {
            slot_capacity: 2,
            iterations: 2,
            seed: 1,
        };
        let s = heuristic_schedule(&inv, &nodes, &ConflictTable::new(), &window(5), &cfg);
        assert_eq!(s.scheduled_count(), 6, "all scheduled, no panic");
        assert!(s.leftovers.is_empty());
    }

    /// The unit-level entry point used by the backend layer: placements
    /// line up with the unit list and agree with the schedule.
    #[test]
    fn unit_scheduling_reports_placements() {
        let inv = ran_inventory();
        let nodes: Vec<NodeId> = inv.ids().collect();
        let units: Vec<Vec<NodeId>> = nodes.chunks(2).map(|c| c.to_vec()).collect();
        let cfg = HeuristicConfig {
            slot_capacity: 6,
            iterations: 2,
            seed: 1,
        };
        let (s, placements) =
            heuristic_schedule_units(&inv, &units, &ConflictTable::new(), &window(20), &cfg);
        assert_eq!(placements.len(), units.len());
        let slots = window(20).usable_slots();
        for (unit, place) in units.iter().zip(&placements) {
            match place {
                Some(idx) => {
                    for n in unit {
                        assert_eq!(s.assignments.get(n), Some(&slots[*idx]));
                    }
                }
                None => {
                    for n in unit {
                        assert!(s.leftovers.contains(n));
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let inv = ran_inventory();
        let nodes: Vec<NodeId> = inv.ids().collect();
        let cfg = HeuristicConfig {
            slot_capacity: 9,
            iterations: 4,
            seed: 7,
        };
        let a = heuristic_schedule(&inv, &nodes, &ConflictTable::new(), &window(12), &cfg);
        let b = heuristic_schedule(&inv, &nodes, &ConflictTable::new(), &window(12), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_window_all_leftover() {
        let inv = ran_inventory();
        let nodes: Vec<NodeId> = inv.ids().collect();
        let w = SchedulingWindow::daily(SimTime::from_ymd_hm(2020, 7, 1, 0, 0), 1).exclude(
            SimTime::from_ymd_hm(2020, 7, 1, 0, 0),
            SimTime::from_ymd_hm(2020, 7, 1, 23, 59),
        );
        let s = heuristic_schedule(
            &inv,
            &nodes,
            &ConflictTable::new(),
            &w,
            &HeuristicConfig::default(),
        );
        assert_eq!(s.leftovers.len(), 48);
    }
}
