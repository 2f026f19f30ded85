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

use crate::decompose::tz_millis;
use crate::translate::{slot_conflicts, tickets, SlotConflicts};
use cornet_types::{ConflictTable, Inventory, NodeId, Schedule, SchedulingWindow};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::borrow::Cow;
use std::cmp::Reverse;
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

/// One market of the tz → market → tac hierarchy of the bundles in scope.
struct MarketGroup {
    tacs: Vec<TacGroup>,
}

struct TacGroup {
    /// Atomic bundle ids (indices into the shared bundle list).
    bundles: Vec<usize>,
    /// Total node count.
    size: usize,
}

/// Rank of each node's `attr` value in string order, `"-"` standing where
/// a node has none: the order a map keyed by those names iterates in.
fn name_ranks(inventory: &Inventory, nodes: &[NodeId], attr: &str) -> Vec<usize> {
    let groups = inventory.group_by(nodes, attr);
    let mut sorted: Vec<&str> = groups.values.iter().map(String::as_str).collect();
    sorted.push("-");
    sorted.sort_unstable();
    sorted.dedup();
    let rank = |name: &str| sorted.binary_search(&name).expect("every name was ranked");
    let of_group: Vec<usize> = groups.values.iter().map(|v| rank(v)).collect();
    let missing = rank("-");
    let ranks = groups.membership.iter();
    ranks.map(|g| g.map_or(missing, |g| of_group[g])).collect()
}

/// Group atomic bundles into the tz → market → tac hierarchy Algorithm 1
/// walks. Each bundle is classified by its first node's attributes — a
/// bundle is by definition scheduled as one unit, so one representative
/// suffices. A missing or non-numeric `utc_offset` degrades gracefully to
/// offset 0 (one shared timezone group) instead of panicking on sparse
/// inventories. Timezones come sorted by UTC offset descending (east →
/// west), each with its markets.
fn build_instance(inventory: &Inventory, bundles: &[&[NodeId]]) -> Vec<Vec<MarketGroup>> {
    let (ids, firsts): (Vec<usize>, Vec<NodeId>) = bundles
        .iter()
        .enumerate()
        .filter_map(|(id, bundle)| Some((id, *bundle.first()?)))
        .unzip();
    let tz = tz_millis(inventory, &firsts);
    let market = name_ranks(inventory, &firsts, "market");
    let tac = name_ranks(inventory, &firsts, "tac");
    type ByRank<T> = BTreeMap<usize, T>;
    let mut tree: BTreeMap<Reverse<i64>, ByRank<ByRank<Vec<usize>>>> = BTreeMap::new();
    for (at, &id) in ids.iter().enumerate() {
        let markets = tree.entry(Reverse(tz[at])).or_default();
        let tacs = markets.entry(market[at]).or_default();
        tacs.entry(tac[at]).or_default().push(id);
    }
    let tac_group = |ids: Vec<usize>| TacGroup {
        size: ids.iter().map(|&id| bundles[id].len()).sum(),
        bundles: ids,
    };
    let market_group = |tacs: ByRank<Vec<usize>>| MarketGroup {
        tacs: tacs.into_values().map(tac_group).collect(),
    };
    // Descending offset: the east coast schedules first.
    let timezones = tree.into_values();
    timezones
        .map(|markets| markets.into_values().map(market_group).collect())
        .collect()
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
    bundles: &[&[NodeId]],
    start_slot: usize,
    remaining: &[i64],
    busy: &SlotConflicts,
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
        let nodes = tac.bundles.iter().flat_map(|&id| bundles[id]);
        nodes.map(|&n| tickets(busy, n, slot)).sum()
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
                    let bundle = bundles[id];
                    if cap[curr] >= bundle.len() as i64 {
                        cap[curr] -= bundle.len() as i64;
                        attempt.assignments.push((id, curr));
                        for &n in bundle {
                            attempt.conflicts += tickets(busy, n, curr);
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

/// What Algorithm 1 decided for a list of bundles.
pub(crate) struct Placed {
    /// Usable-slot index each bundle landed on (`None` = leftover, or an
    /// empty bundle).
    pub(crate) placement: Vec<Option<usize>>,
    /// Bundles that did not fit, in the order the timezones gave them up.
    leftovers: Vec<usize>,
    conflicts: usize,
}

/// Run Algorithm 1 over pre-formed atomic `bundles` and `n_slots` usable
/// slots whose tickets are counted in `busy`.
pub(crate) fn place_bundles(
    inventory: &Inventory,
    bundles: &[&[NodeId]],
    busy: &SlotConflicts,
    n_slots: usize,
    config: &HeuristicConfig,
) -> Placed {
    let mut placed = Placed {
        placement: vec![None; bundles.len()],
        leftovers: Vec::new(),
        conflicts: 0,
    };
    if n_slots == 0 {
        placed.leftovers = (0..bundles.len()).collect();
        return placed;
    }
    let timezones = build_instance(inventory, bundles);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut remaining = vec![config.slot_capacity; n_slots];
    let mut start_slot = 0usize;
    let mut last_used = 0usize;

    for markets in &timezones {
        let mut best: Option<(Attempt, Vec<i64>)> = None;
        for _ in 0..config.iterations.max(1) {
            let mut perm: Vec<&MarketGroup> = markets.iter().collect();
            perm.shuffle(&mut rng);
            let (attempt, cap) = construct(&perm, bundles, start_slot, &remaining, busy, n_slots);
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
            placed.placement[id] = Some(slot_idx);
            last_used = last_used.max(slot_idx);
        }
        placed.leftovers.extend(attempt.leftovers);
        placed.conflicts += attempt.conflicts;
        remaining = cap;
        // Next timezone starts at the last slot that still has spare
        // capacity among the slots we touched (Algorithm 1's
        // start_timeslot bookkeeping) — adjacent-timezone border sharing.
        start_slot = remaining
            .iter()
            .enumerate()
            .rev()
            .find(|(i, c)| **c > 0 && *i <= last_used)
            .map(|(i, _)| i)
            .unwrap_or(0);
    }
    placed
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
    let slots = window.usable_slots();
    let periods: Vec<_> = slots.iter().map(|&s| window.slot_period(s)).collect();
    let busy = slot_conflicts(conflicts, &periods);
    let bundles: Vec<&[NodeId]> = units.iter().map(Vec::as_slice).collect();
    let placed = place_bundles(inventory, &bundles, &busy, slots.len(), config);
    let mut schedule = Schedule {
        conflicts: placed.conflicts,
        ..Schedule::default()
    };
    for (bundle, slot_idx) in bundles.iter().zip(&placed.placement) {
        if let Some(slot_idx) = slot_idx {
            let on_slot = bundle.iter().map(|&n| (n, slots[*slot_idx]));
            schedule.assignments.extend(on_slot);
        }
    }
    let leftovers = placed.leftovers.iter().flat_map(|&id| bundles[id]);
    schedule.leftovers = leftovers.copied().collect();
    (schedule, placed.placement)
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
    let usids = inventory.group_by(nodes, "usid");
    let mut by_usid: BTreeMap<Cow<'_, str>, Vec<NodeId>> = BTreeMap::new();
    for (&n, usid) in nodes.iter().zip(&usids.membership) {
        let usid = usid.map_or_else(|| n.to_string().into(), |g| usids.values[g].as_str().into());
        by_usid.entry(usid).or_default().push(n);
    }
    let bundles: Vec<Vec<NodeId>> = by_usid.into_values().collect();
    heuristic_schedule_units(inventory, &bundles, conflicts, window, config).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_types::{Attributes, NfType, SimTime, Timeslot};

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

    /// Markets and TACs are walked in name order whatever order they are
    /// first seen in, a bundle without the attribute standing as `"-"` —
    /// beside a market that is literally named so.
    #[test]
    fn markets_and_tacs_walk_in_name_order_with_a_dash_for_missing() {
        let mut inv = Inventory::new();
        for (market, tac) in [
            (Some("b"), Some("t2")),
            (None, Some("t1")),
            (Some("B"), None),
            (Some("-"), Some("t0")),
            (Some("!a"), Some("t9")),
            (Some("b"), Some("T2")),
            (Some("b"), Some("t2")),
        ] {
            let mut attrs = Attributes::new().with("utc_offset", -5.0);
            if let Some(market) = market {
                attrs.set("market", market);
            }
            if let Some(tac) = tac {
                attrs.set("tac", tac);
            }
            inv.push("n", NfType::ENodeB, attrs);
        }
        let bundles: Vec<[NodeId; 1]> = inv.ids().map(|n| [n]).collect();
        let bundles: Vec<&[NodeId]> = bundles.iter().map(|b| &b[..]).collect();
        let timezones = build_instance(&inv, &bundles);
        assert_eq!(timezones.len(), 1);
        let walk: Vec<Vec<&[usize]>> = timezones[0]
            .iter()
            .map(|m| m.tacs.iter().map(|t| &t.bundles[..]).collect())
            .collect();
        let expected: Vec<Vec<&[usize]>> = vec![
            vec![&[4]],          // "!a"
            vec![&[3], &[1]],    // "-" and no market: t0, t1
            vec![&[2]],          // "B", no tac
            vec![&[5], &[0, 6]], // "b": T2, then t2 in bundle order
        ];
        assert_eq!(walk, expected);
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
