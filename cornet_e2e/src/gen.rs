//! Seeded generators for the four op lists.
//!
//! Everything the program under test receives is produced here from
//! `--seed`: bundle texts, KPI feeds, networks, roll-out plans. Class
//! *counts* per cycle are fixed (never sampled) so that two seeds do the
//! same amount of work and differ only in the inputs themselves; the seed
//! drives op order, names, network structure and KPI noise. README.md
//! records why each class and size was chosen.

use cornet_netsim::{ImpactKind, InjectedImpact, KpiGenerator};
use cornet_types::NodeId;
use std::fmt::Write as _;

/// splitmix64 — small, seedable, and stable across toolchains.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream of `seed` named by `stream`.
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(seed ^ fnv1a64(stream.as_bytes()).rotate_left(21))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of an op list: equal lists (and only those) hash equal.
pub fn fingerprint<T: std::fmt::Debug>(ops: &[T]) -> u64 {
    fnv1a64(format!("{ops:?}").as_bytes())
}

// --- tenant_mix -----------------------------------------------------------

/// KPI carried by every generated ingest feed.
pub const FEED_KPI: &str = "thr";
/// Study (and control) nodes per feed.
pub const FEED_NODES: usize = 8;
/// Ticks per feed; the change lands at the midpoint.
pub const FEED_TICKS: usize = 60;
pub const FEED_STEP_MINUTES: u64 = 60;
pub const FEED_CHANGE_MINUTE: u64 = (FEED_TICKS as u64 / 2) * FEED_STEP_MINUTES;

/// How a defective bundle is broken (each is one error diagnostic of a
/// different check pass).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Defect {
    /// `software_upgrade` consumes an input nothing provides (CN0201).
    UnderfedWorkflow,
    /// Breaker threshold outside (0, 1] (CN03xx).
    BadBreaker,
    /// Two campaigns claim one node in one slot (CN0416).
    DoubleBooked,
}

/// One `tenant_mix` op.
#[derive(Clone, Debug, PartialEq)]
pub enum TenantOp {
    /// Submit → verdict for one campaign of `nodes` nodes.
    Campaign {
        nodes: u32,
        /// Whether the KPI feed carries an injected level shift.
        shifted: bool,
        /// Seed of the campaign's fault-free scenario and KPI feed.
        seed: u64,
    },
    /// A bundle the gate must refuse with 422.
    Defective { defect: Defect, nodes: u32 },
}

/// One cycle of `tenant_mix`: 70/25/5 % of 24/96/384-node campaigns, half
/// the feeds shifted, plus defective bundles at 5 % of the campaign count.
pub fn tenant_ops(seed: u64, quick: bool) -> Vec<TenantOp> {
    let mut rng = Rng::new(seed, "tenant_mix");
    let mix: &[(u32, usize)] = if quick {
        &[(24, 7), (96, 2), (384, 1)]
    } else {
        &[(24, 70), (96, 25), (384, 5)]
    };
    let defects = if quick { 1 } else { 5 };
    let mut ops: Vec<TenantOp> = Vec::new();
    for &(nodes, count) in mix {
        for i in 0..count {
            ops.push(TenantOp::Campaign {
                nodes,
                shifted: i % 2 == 0,
                seed: rng.next_u64() >> 16,
            });
        }
    }
    let kinds = [
        Defect::UnderfedWorkflow,
        Defect::BadBreaker,
        Defect::DoubleBooked,
    ];
    for i in 0..defects {
        ops.push(TenantOp::Defective {
            defect: kinds[(i + rng.below(3) as usize) % 3],
            nodes: 4 + rng.below(20) as u32,
        });
    }
    rng.shuffle(&mut ops);
    ops
}

const MARKETS: [&str; 3] = ["NYC", "DFW", "SEA"];
/// Instances per wave in generated campaigns (the daemon scenario's slot
/// width, so the declared schedule is the one that runs).
pub const PER_SLOT: u32 = 8;

fn push_inventory(out: &mut String, tag: &str, nodes: u32) {
    out.push_str("\"inventory\":[");
    for i in 0..nodes {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{tag}-enb-{i}\",\"nf_type\":\"enb\",\"attrs\":{{\"market\":\"{}\",\"common_id\":\"{tag}-{i}\"}}}}",
            MARKETS[i as usize % MARKETS.len()]
        );
    }
    out.push(']');
}

fn push_assignments(out: &mut String, nodes: u32) {
    out.push_str("\"assignments\":[");
    for i in 0..nodes {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{i},{}]", i / PER_SLOT + 1);
    }
    out.push(']');
}

const UPGRADE_WORKFLOW: &str = "{\"name\":\"upgrade-with-backout\",\
    \"inputs\":{\"node\":\"string\",\"software_version\":\"string\"},\
    \"sequence\":[\"health_check\",\"traffic_redirect\",\"software_upgrade\",\"pre_post_comparison\"],\
    \"backout\":[\"traffic_restore\"]}";

/// A 60-day daily window with `PER_SLOT` changes a day — room for the
/// 48 waves of the largest class.
const INTENT: &str = "{\"scheduling_window\":{\"start\":\"2020-07-01 00:00:00\",\
    \"end\":\"2020-08-29 23:59:00\",\"granularity\":{\"metric\":\"day\",\"value\":1}},\
    \"maintenance_window\":{\"start\":\"0:00\",\"end\":\"6:00\"},\
    \"schedulable_attribute\":\"common_id\",\"conflict_attribute\":\"common_id\",\
    \"constraints\":[{\"name\":\"concurrency\",\"base_attribute\":\"common_id\",\
    \"operator\":\"<=\",\"granularity\":{\"metric\":\"day\",\"value\":1},\"default_capacity\":8}]}";

/// A clean MOP bundle: inventory, intent, one workflow, one declared
/// campaign over every node, and the fault-free scenario that runs it.
/// Node names carry `tag`, so bundles with different tags never interfere.
pub fn campaign_bundle(tag: &str, nodes: u32, seed: u64) -> String {
    let mut out = String::with_capacity(128 * nodes as usize + 1024);
    let _ = write!(
        out,
        "{{\"name\":\"{tag}\",\"scenario\":{{\"seed\":{seed},\"nodes\":{nodes},\"per_slot\":{PER_SLOT},\
         \"fault_rate_milli\":0,\"latency_ms\":0}},\"workflows\":[{UPGRADE_WORKFLOW}],"
    );
    push_inventory(&mut out, tag, nodes);
    let _ = write!(
        out,
        ",\"intent\":{INTENT},\"campaigns\":[{{\"workflow\":\"upgrade-with-backout\","
    );
    push_assignments(&mut out, nodes);
    out.push_str("}]}");
    out
}

/// A bundle carrying exactly one kind of gate-refused defect.
pub fn defective_bundle(tag: &str, defect: Defect, nodes: u32) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"name\":\"{tag}\",");
    match defect {
        Defect::UnderfedWorkflow => out.push_str(
            "\"workflows\":[{\"name\":\"underfed\",\"inputs\":{\"node\":\"string\"},\
             \"sequence\":[\"health_check\",\"software_upgrade\"]}],",
        ),
        Defect::BadBreaker => {
            let _ = write!(
                out,
                "\"workflows\":[{UPGRADE_WORKFLOW}],\"resilience\":{{\"breaker\":\
                 {{\"failure_threshold\":1.5,\"min_samples\":2}},\"planned_instances\":{nodes}}},"
            );
        }
        Defect::DoubleBooked => {
            let _ = write!(
                out,
                "\"workflows\":[{UPGRADE_WORKFLOW}],\"campaigns\":[\
                 {{\"workflow\":\"upgrade-with-backout\",\"assignments\":[[0,1]]}},\
                 {{\"workflow\":\"hot-patch\",\"assignments\":[[0,1]]}}],"
            );
        }
    }
    push_inventory(&mut out, tag, nodes);
    out.push('}');
    out
}

/// The JSONL KPI feed of one campaign: `FEED_NODES` study/control pairs,
/// `FEED_TICKS` hourly ticks, tick-major. `shifted` injects a +25 % level
/// shift on every study node at the change minute (ground truth:
/// `Improvement`; otherwise `NoImpact`).
pub fn kpi_feed(seed: u64, shifted: bool) -> String {
    let gen = KpiGenerator {
        seed,
        noise: 0.01,
        step_minutes: FEED_STEP_MINUTES,
        ..KpiGenerator::default()
    };
    let series: Vec<(String, Vec<f64>)> = (0..2 * FEED_NODES)
        .map(|n| {
            let study = n < FEED_NODES;
            let impacts = if study && shifted {
                vec![InjectedImpact {
                    node: NodeId(n as u32),
                    kpi: FEED_KPI.into(),
                    carrier: None,
                    at_minute: FEED_CHANGE_MINUTE,
                    kind: ImpactKind::LevelShift,
                    magnitude: 0.25,
                }]
            } else {
                Vec::new()
            };
            let name = if study {
                format!("study-{n}")
            } else {
                format!("control-{}", n - FEED_NODES)
            };
            let values = gen
                .series(NodeId(n as u32), FEED_KPI, None, FEED_TICKS, &impacts)
                .values;
            (name, values)
        })
        .collect();
    let mut out = String::with_capacity(2 * FEED_NODES * FEED_TICKS * 64);
    for k in 0..FEED_TICKS {
        for (name, values) in &series {
            let _ = writeln!(
                out,
                "{{\"node\":\"{name}\",\"kpi\":\"{FEED_KPI}\",\"minute\":{},\"value\":{}}}",
                k as u64 * FEED_STEP_MINUTES,
                values[k]
            );
        }
    }
    out
}

// --- fleet_plan -----------------------------------------------------------

/// Backend × size classes of `fleet_plan` (§4.2's curve).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlanClass {
    Exact200,
    Exact1k,
    Portfolio1k,
    Heuristic50k,
    Sharded3k,
    Exact3k,
}

impl PlanClass {
    pub fn label(self) -> &'static str {
        match self {
            PlanClass::Exact200 => "exact.n200",
            PlanClass::Exact1k => "exact.n1k",
            PlanClass::Portfolio1k => "portfolio.n1k",
            PlanClass::Heuristic50k => "heuristic.n50k",
            PlanClass::Sharded3k => "sharded.n3k",
            PlanClass::Exact3k => "exact.n3k",
        }
    }

    /// RAN nodes in the class's networks.
    pub fn target_nodes(self, quick: bool) -> usize {
        let full = match self {
            PlanClass::Exact200 => 200,
            PlanClass::Exact1k | PlanClass::Portfolio1k => 1_000,
            PlanClass::Heuristic50k => 50_000,
            PlanClass::Sharded3k | PlanClass::Exact3k => 3_000,
        };
        if quick {
            (full / 10).max(100)
        } else {
            full
        }
    }

    /// Search-node budget: binding for the exact backend, so the work per
    /// op is fixed by the budget and not by the wall clock.
    pub fn max_nodes(self) -> u64 {
        match self {
            PlanClass::Exact3k => 4_000,
            _ => 5_000,
        }
    }
}

/// One `fleet_plan` op: a `plan()` call on network `net` of its class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanOp {
    pub class: PlanClass,
    /// Index into the class's generated networks.
    pub net: usize,
    /// Market-permutation seed handed to the heuristic member.
    pub heuristic_seed: u64,
}

/// `(class, ops per cycle, distinct networks)`. Small exact plans are 80 %
/// of the ops, so the p50 rank falls in the middle of that class; the two
/// 50k heuristic plans hold ranks 87–93 %, so p90 sits inside one class too.
pub fn plan_mix(quick: bool) -> Vec<(PlanClass, usize, usize)> {
    let full = vec![
        (PlanClass::Exact200, 24, 24),
        (PlanClass::Exact1k, 1, 1),
        (PlanClass::Portfolio1k, 1, 1),
        (PlanClass::Heuristic50k, 2, 1),
        (PlanClass::Sharded3k, 1, 1),
        (PlanClass::Exact3k, 1, 1),
    ];
    if quick {
        full.into_iter()
            .map(|(c, n, nets): (PlanClass, usize, usize)| (c, n.div_ceil(5), nets.div_ceil(5)))
            .collect()
    } else {
        full
    }
}

pub fn plan_ops(seed: u64, quick: bool) -> Vec<PlanOp> {
    let mut rng = Rng::new(seed, "fleet_plan");
    let mut ops = Vec::new();
    for (class, count, nets) in plan_mix(quick) {
        for i in 0..count {
            ops.push(PlanOp {
                class,
                net: i % nets,
                heuristic_seed: 1 + rng.below(1 << 20),
            });
        }
    }
    rng.shuffle(&mut ops);
    ops
}

/// Seed of network `net` of `class` under run seed `seed`.
pub fn network_seed(seed: u64, class: PlanClass, net: usize) -> u64 {
    Rng::new(seed, class.label())
        .next_u64()
        .wrapping_add(net as u64)
        >> 8
}

// --- fleet_rollout --------------------------------------------------------

/// How one roll-out campaign runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RolloutKind {
    /// Journaled straight through, fsync every 64 appends.
    Straight,
    /// Killed at `crash_at` (instance index), then resumed from the journal.
    CrashResume { crash_at: u32 },
    /// Small campaign with an fsync per append.
    SmallAlways,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RolloutOp {
    pub kind: RolloutKind,
    pub instances: u32,
    /// Instances per timeslot.
    pub per_slot: u32,
}

/// One cycle: 9 straight, 2 crash + resume, 2 small fsync-bound (the
/// issue's 72 / 16 / 12 % in the fewest ops, so that a run repeats every op
/// often enough to find its quiet samples).
pub fn rollout_ops(seed: u64, quick: bool) -> Vec<RolloutOp> {
    let mut rng = Rng::new(seed, "fleet_rollout");
    let (instances, small) = if quick { (100, 20) } else { (1_000, 100) };
    let counts = if quick { (4, 1, 1) } else { (9, 2, 2) };
    let mut ops = Vec::new();
    for _ in 0..counts.0 {
        ops.push(RolloutOp {
            kind: RolloutKind::Straight,
            instances,
            per_slot: 50,
        });
    }
    for _ in 0..counts.1 {
        // The kill lands within ±5 % of the midpoint.
        let jitter = rng.below(instances as u64 / 10) as u32;
        ops.push(RolloutOp {
            kind: RolloutKind::CrashResume {
                crash_at: instances / 2 - instances / 20 + jitter,
            },
            instances,
            per_slot: 50,
        });
    }
    for _ in 0..counts.2 {
        ops.push(RolloutOp {
            kind: RolloutKind::SmallAlways,
            instances: small,
            per_slot: 50,
        });
    }
    rng.shuffle(&mut ops);
    ops
}

// --- kpi_verify -----------------------------------------------------------

pub const VERIFY_KPIS: [&str; 2] = ["thr", "drop"];
pub const VERIFY_MARKETS: usize = 10;

/// One verification session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VerifyOp {
    /// Study nodes (paired one-to-one with controls).
    pub study: u32,
    pub ticks: u64,
    /// Injected ground truth: relative level shift on `thr` of every study
    /// node, or none.
    pub impact: Option<f64>,
    pub seed: u64,
}

/// One cycle: eight regular sessions and two of double length (which hold
/// ranks 80–100 %, so p90 sits mid-class); half carry an impact.
pub fn verify_ops(seed: u64, quick: bool) -> Vec<VerifyOp> {
    let mut rng = Rng::new(seed, "kpi_verify");
    let (study, ticks) = if quick { (10, 200) } else { (50, 250) };
    let mix: &[(u64, usize)] = if quick {
        &[(1, 2), (2, 1)]
    } else {
        &[(1, 8), (2, 2)]
    };
    let mut ops = Vec::new();
    for &(factor, count) in mix {
        for i in 0..count {
            ops.push(VerifyOp {
                study,
                ticks: ticks * factor,
                impact: (i % 2 == 0).then(|| if i % 4 == 0 { 0.2 } else { -0.2 }),
                seed: rng.next_u64() >> 16,
            });
        }
    }
    rng.shuffle(&mut ops);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_core::{gate, load_bundle};

    #[test]
    fn same_seed_same_op_lists_different_seed_different() {
        for quick in [false, true] {
            assert_eq!(
                fingerprint(&tenant_ops(7, quick)),
                fingerprint(&tenant_ops(7, quick))
            );
            assert_ne!(
                fingerprint(&tenant_ops(7, quick)),
                fingerprint(&tenant_ops(8, quick))
            );
            assert_eq!(
                fingerprint(&plan_ops(7, quick)),
                fingerprint(&plan_ops(7, quick))
            );
            assert_ne!(
                fingerprint(&plan_ops(7, quick)),
                fingerprint(&plan_ops(8, quick))
            );
            assert_eq!(
                fingerprint(&rollout_ops(7, quick)),
                fingerprint(&rollout_ops(7, quick))
            );
            assert_ne!(
                fingerprint(&rollout_ops(7, quick)),
                fingerprint(&rollout_ops(8, quick))
            );
            assert_eq!(
                fingerprint(&verify_ops(7, quick)),
                fingerprint(&verify_ops(7, quick))
            );
            assert_ne!(
                fingerprint(&verify_ops(7, quick)),
                fingerprint(&verify_ops(8, quick))
            );
        }
        assert_eq!(kpi_feed(3, true), kpi_feed(3, true));
        assert_ne!(kpi_feed(3, true), kpi_feed(4, true));
    }

    #[test]
    fn class_counts_do_not_depend_on_the_seed() {
        let count = |seed| {
            let ops = tenant_ops(seed, false);
            let of = |n: u32| {
                ops.iter()
                    .filter(|o| matches!(o, TenantOp::Campaign { nodes, .. } if *nodes == n))
                    .count()
            };
            (of(24), of(96), of(384), ops.len())
        };
        assert_eq!(count(1), (70, 25, 5, 105));
        assert_eq!(count(2), count(1));
        let plans = plan_ops(5, false);
        assert_eq!(plans.len(), 30);
        assert_eq!(
            plans
                .iter()
                .filter(|o| o.class == PlanClass::Exact200)
                .count(),
            24
        );
        assert_eq!(rollout_ops(5, false).len(), 13);
        assert_eq!(verify_ops(5, false).len(), 10);
    }

    #[test]
    fn generated_bundles_meet_the_gate_as_labelled() {
        for nodes in [24, 96, 384] {
            let bundle = load_bundle(&campaign_bundle("t1", nodes, 9)).expect("bundle loads");
            assert_eq!(bundle.inventory.len(), nodes as usize);
            assert_eq!(bundle.campaigns.len(), 1);
            let report = gate(&bundle).unwrap_or_else(|r| panic!("{}", r.render_text()));
            assert!(!report.has_errors());
        }
        for defect in [
            Defect::UnderfedWorkflow,
            Defect::BadBreaker,
            Defect::DoubleBooked,
        ] {
            let bundle = load_bundle(&defective_bundle("d1", defect, 6)).expect("bundle loads");
            assert!(gate(&bundle).is_err(), "{defect:?} must be refused");
        }
    }
}
