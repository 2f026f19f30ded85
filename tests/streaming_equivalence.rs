//! Streaming-vs-batch verdict equivalence under adversarial delivery.
//!
//! The streaming engine's contract (DESIGN.md) is that after a full
//! replay of a sample feed — in *any* arrival order, torn across any
//! pump cadence, with duplicated deliveries — `poll_verdicts()` is
//! bit-for-bit identical to running the batch `verify_rules` over the
//! same series. These properties drive randomized feeds through both
//! paths and compare every verdict field down to the f64 bit pattern,
//! including p-values, relative shifts, and per-location breakdowns.
//!
//! Two fixed cases pin what the properties leave loose: the pump cadence
//! is unobservable (store, counters and per-stream detections alike), and
//! a staggered scope — where every location slice aligns the control
//! group at its own minute — agrees across the parallel fan, the
//! sequential reference and a streamed poll.

use cornet::obs::Tracer;
use cornet::stats::TimeSeries;
use cornet::types::{Attributes, CornetError, Inventory, NfType, NodeId, Topology};
use cornet::verifier::{
    verify_rule, verify_rule_sequential, verify_rules, ChangeScope, ClosureAdapter, DataAdapter,
    Expectation, KpiQuery, StreamConfig, StreamDetection, StreamSample, StreamingVerifier,
    VerificationReport, VerificationRule,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One randomized feed: `study` study nodes paired with `study`
/// controls, `ticks` samples per stream on a 60-minute grid, a level
/// shift of `delta` on the study nodes from `change_tick` on. The
/// delivery permutation and the change tick are derived from `seed`, so
/// every case exercises a different arrival order.
#[derive(Debug, Clone)]
struct Feed {
    study: u32,
    ticks: u64,
    change_tick: u64,
    delta: f64,
    noise: f64,
    seed: u64,
    pump_every: usize,
}

/// splitmix-style hash: deterministic per-(seed, node, tick) noise so the
/// stream side and the batch adapter reconstruct the same value.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

/// The KPI value for `node` at grid tick `k` — including sparse missing
/// points (NaN), which are *delivered* as NaN samples so both sides see
/// an identical grid.
fn value_at(feed: &Feed, node: u32, k: u64) -> f64 {
    let h = mix(feed.seed, node as u64, k);
    if h.is_multiple_of(29) {
        return f64::NAN;
    }
    let mut v = 100.0 + (h % 1000) as f64 / 1000.0 * feed.noise;
    if node < feed.study && k >= feed.change_tick {
        v += feed.delta;
    }
    v
}

/// Seed-keyed Fisher–Yates over every (node, tick) cell: the delivery
/// order the stream side replays.
fn permuted_cells(feed: &Feed) -> Vec<usize> {
    let mut cells: Vec<usize> = (0..(feed.study as usize * 2 * feed.ticks as usize)).collect();
    for i in (1..cells.len()).rev() {
        let j = (mix(feed.seed, 0x5EED, i as u64) % (i as u64 + 1)) as usize;
        cells.swap(i, j);
    }
    cells
}

fn arb_feed() -> impl Strategy<Value = Feed> {
    (
        1u32..5,
        24u64..97,
        0.0f64..30.0,
        0.0f64..2.0,
        any::<u64>(),
        1usize..65,
    )
        .prop_map(|(study, ticks, delta, noise, seed, pump_every)| Feed {
            study,
            ticks,
            // Keep ≥ min_samples (8) base-resolution points on each side
            // of the change so the verifier accepts the window.
            change_tick: 8 + mix(seed, 0xC4A6, ticks) % (ticks - 15),
            delta,
            noise,
            seed,
            pump_every,
        })
}

/// Paired fixture: study-i ↔ control-i edges, alternating markets so the
/// per-location breakdown has at least two slices to disagree on.
fn fixture(feed: &Feed) -> (Inventory, Topology, ChangeScope, Vec<VerificationRule>) {
    let n = feed.study * 2;
    let mut inv = Inventory::new();
    for i in 0..n {
        inv.push(
            format!("n{i}"),
            NfType::ENodeB,
            Attributes::new().with("market", if i % 2 == 0 { "NYC" } else { "DFW" }),
        );
    }
    let mut topo = Topology::with_capacity(n as usize);
    for i in 0..feed.study {
        topo.add_edge(NodeId(i), NodeId(i + feed.study));
    }
    let study: Vec<NodeId> = (0..feed.study).map(NodeId).collect();
    let scope = ChangeScope::simultaneous(&study, feed.change_tick * 60);
    let mut rule = VerificationRule::standard(
        "stream-equiv",
        vec![KpiQuery::expecting("thr", true, Expectation::Any)],
    );
    rule.location_attributes = vec!["market".into()];
    (inv, topo, scope, vec![rule])
}

fn sample(feed: &Feed, cell: usize) -> StreamSample {
    let ticks = feed.ticks as usize;
    let node = (cell / ticks) as u32;
    let k = (cell % ticks) as u64;
    StreamSample {
        node: NodeId(node),
        kpi: "thr".into(),
        carrier: None,
        minute: k * 60,
        value: value_at(feed, node, k),
    }
}

/// Drive the whole feed through a fresh engine in the permuted order,
/// pumping on the feed's cadence, then redeliver every 7th cell (a
/// duplicate correction with the same value) and pump once more.
fn run_stream(feed: &Feed, order: &[usize]) -> StreamingVerifier {
    let (inv, topo, scope, rules) = fixture(feed);
    let engine = StreamingVerifier::new(
        rules,
        scope,
        inv,
        topo,
        StreamConfig::default(),
        Tracer::noop(),
    );
    for (i, &cell) in order.iter().enumerate() {
        engine.offer(sample(feed, cell));
        if (i + 1) % feed.pump_every == 0 {
            engine.pump();
        }
    }
    for &cell in order.iter().step_by(7) {
        engine.offer(sample(feed, cell));
    }
    engine.pump();
    engine
}

fn run_batch(feed: &Feed) -> Result<Vec<VerificationReport>, CornetError> {
    let (inv, topo, scope, rules) = fixture(feed);
    let f = feed.clone();
    let adapter = ClosureAdapter(move |node: NodeId, _: &str, _: Option<usize>| {
        Some(TimeSeries::new(
            0,
            60,
            (0..f.ticks).map(|k| value_at(&f, node.0, k)).collect(),
        ))
    });
    verify_rules(&adapter, &rules, &scope, &inv, &topo)
}

/// Every field that feeds an operations decision must agree to the bit.
fn assert_reports_bit_equal(
    streamed: &[VerificationReport],
    batch: &[VerificationReport],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(streamed.len(), batch.len());
    for (s, b) in streamed.iter().zip(batch) {
        prop_assert_eq!(&s.rule, &b.rule);
        prop_assert_eq!(s.decision, b.decision);
        prop_assert_eq!(s.kpis.len(), b.kpis.len());
        for (sk, bk) in s.kpis.iter().zip(&b.kpis) {
            prop_assert_eq!(sk.meets_expectation, bk.meets_expectation);
            prop_assert_eq!(sk.overall.verdict, bk.overall.verdict);
            prop_assert_eq!(sk.overall.p_value.to_bits(), bk.overall.p_value.to_bits());
            prop_assert_eq!(
                sk.overall.relative_shift.to_bits(),
                bk.overall.relative_shift.to_bits()
            );
            prop_assert_eq!(sk.overall.decisive_timescale, bk.overall.decisive_timescale);
            prop_assert_eq!(sk.overall.nodes_used, bk.overall.nodes_used);
            prop_assert_eq!(sk.per_location.len(), bk.per_location.len());
            for (sl, bl) in sk.per_location.iter().zip(&bk.per_location) {
                prop_assert_eq!(&sl.attribute, &bl.attribute);
                prop_assert_eq!(&sl.value, &bl.value);
                match (&sl.analysis, &bl.analysis) {
                    (Ok(sa), Ok(ba)) => {
                        prop_assert_eq!(sa.verdict, ba.verdict);
                        prop_assert_eq!(sa.p_value.to_bits(), ba.p_value.to_bits());
                        prop_assert_eq!(sa.relative_shift.to_bits(), ba.relative_shift.to_bits());
                    }
                    (Err(se), Err(be)) => prop_assert_eq!(se, be),
                    _ => prop_assert!(
                        false,
                        "location slice {}={} disagreed on analyzability",
                        sl.attribute,
                        sl.value
                    ),
                }
            }
        }
    }
    Ok(())
}

fn assert_paths_agree(feed: &Feed, order: &[usize]) -> Result<(), TestCaseError> {
    let engine = run_stream(feed, order);
    match (engine.poll_verdicts(), run_batch(feed)) {
        (Ok(s), Ok(b)) => assert_reports_bit_equal(&s, &b)?,
        (Err(se), Err(be)) => {
            prop_assert_eq!(format!("{se:?}"), format!("{be:?}"));
        }
        (s, b) => prop_assert!(
            false,
            "paths disagreed on success: streaming ok={} batch ok={}",
            s.is_ok(),
            b.is_ok()
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: shuffled, torn, duplicated delivery of a
    /// full feed yields verdicts bit-identical to batch verification.
    #[test]
    fn streamed_verdicts_match_batch_bit_for_bit(feed in arb_feed()) {
        assert_paths_agree(&feed, &permuted_cells(&feed))?;
    }

    /// Out-of-order delivery must reconstruct the exact grid: after a
    /// full permuted replay, every stream's stored series equals the
    /// source matrix bit-for-bit (NaNs included).
    #[test]
    fn torn_delivery_reconstructs_the_exact_grid(feed in arb_feed()) {
        let engine = run_stream(&feed, &permuted_cells(&feed));
        for node in 0..feed.study * 2 {
            let series = engine.store().series(NodeId(node), "thr", None);
            let series = series.expect("stream fully delivered, series must exist");
            prop_assert_eq!(series.start_minute, 0);
            prop_assert_eq!(series.step_minutes, 60);
            prop_assert_eq!(series.values.len() as u64, feed.ticks);
            for (k, v) in series.values.iter().enumerate() {
                prop_assert_eq!(
                    v.to_bits(),
                    value_at(&feed, node, k as u64).to_bits(),
                    "node {} tick {} diverged",
                    node,
                    k
                );
            }
        }
    }

    /// Window-boundary stress: the change minute lands exactly on a
    /// detector-window or coarse-timescale boundary (multiples of the
    /// detect window 8 and of the 24-sample timescale lane), where an
    /// off-by-one in pre/post alignment would first show up. Delivery is
    /// fully reversed — the worst case for grid back-fill.
    #[test]
    fn change_at_window_boundary_still_matches(feed in arb_feed(), pick in 0usize..4) {
        let mut feed = feed;
        feed.ticks = 96;
        feed.change_tick = [8u64, 16, 24, 48][pick];
        let mut order = permuted_cells(&feed);
        order.sort_unstable();
        order.reverse();
        assert_paths_agree(&feed, &order)?;
    }
}

/// One feed with everything a live feed does wrong — ticks locally out of
/// order, cells that never arrive, cells corrected later, an off-grid
/// timestamp — delivered identically at four pump cadences.
#[test]
fn pump_cadence_is_unobservable() {
    let feed = Feed {
        study: 3,
        ticks: 96,
        change_tick: 48,
        delta: 25.0,
        noise: 1.0,
        seed: 0xCADE,
        pump_every: 1,
    };
    let ticks = feed.ticks as usize;
    let streams = feed.study as usize * 2;
    // Tick-major so the detectors see a mostly in-order stream and fire;
    // then each cell swaps with one up to three ticks away.
    let mut order: Vec<usize> = (0..ticks)
        .flat_map(|k| (0..streams).map(move |n| n * ticks + k))
        .collect();
    for i in 0..order.len() {
        let j = i + (mix(feed.seed, 0x0DD, i as u64) % (3 * streams as u64)) as usize;
        if j < order.len() {
            order.swap(i, j);
        }
    }
    let mut delivery: Vec<StreamSample> = Vec::new();
    for (i, &cell) in order.iter().enumerate() {
        if i % 13 == 5 {
            continue; // never arrives: a gap once a later tick lands
        }
        delivery.push(sample(&feed, cell));
        if i % 7 == 3 {
            // A correction of an earlier cell, with a different value.
            let mut fix = sample(&feed, order[i / 2]);
            fix.value += 0.5;
            delivery.push(fix);
        }
        if i % 97 == 0 {
            let mut off_grid = sample(&feed, cell);
            off_grid.minute += 1;
            delivery.push(off_grid);
        }
    }

    type Key = (NodeId, String, Option<usize>);
    let run = |cadence: usize| {
        let (inv, topo, scope, rules) = fixture(&feed);
        let config = StreamConfig {
            detect_window: 4,
            detect_timescales: vec![1, 4],
            ..StreamConfig::default()
        };
        let engine = StreamingVerifier::new(rules, scope, inv, topo, config, Tracer::noop());
        let mut detections: BTreeMap<Key, Vec<StreamDetection>> = BTreeMap::new();
        let mut pump = |engine: &StreamingVerifier| {
            engine.pump();
            for d in engine.take_detections() {
                let key = (d.node, d.kpi.clone(), d.carrier);
                detections.entry(key).or_default().push(d);
            }
        };
        for (i, s) in delivery.iter().enumerate() {
            engine.offer(s.clone());
            if (i + 1) % cadence == 0 {
                pump(&engine);
            }
        }
        pump(&engine);
        let series: Vec<Option<TimeSeries>> = (0..feed.study * 2)
            .map(|n| engine.store().series(NodeId(n), "thr", None))
            .collect();
        (series, engine.stats(), detections)
    };
    let bits = |series: &[Option<TimeSeries>]| -> Vec<Option<(u64, Vec<u64>)>> {
        series
            .iter()
            .map(|s| {
                s.as_ref().map(|s| {
                    (
                        s.start_minute,
                        s.values.iter().map(|v| v.to_bits()).collect(),
                    )
                })
            })
            .collect()
    };

    let (series, stats, detections) = run(1);
    assert!(series.iter().all(Option::is_some));
    assert!(stats.rejected > 0 && stats.processed > 0);
    assert!(
        detections.values().map(Vec::len).sum::<usize>() > 0,
        "the step must fire some detector, or the comparison is vacuous"
    );
    for cadence in [4, 17, usize::MAX] {
        let (s, st, d) = run(cadence);
        assert_eq!(bits(&s), bits(&series), "store at cadence {cadence}");
        assert_eq!(st, stats, "counters at cadence {cadence}");
        assert_eq!(d, detections, "detections at cadence {cadence}");
    }
}

/// Staggered roll-out over three markets, each with its own change
/// minutes: every location slice has its own reference minute, so one
/// control stream is aligned at several minutes within the one rule. The
/// memoizing fan, the memo-free sequential reference and a streamed poll
/// must agree to the p-value bit, overall and per location.
#[test]
fn staggered_scope_agrees_across_fan_reference_and_stream() {
    const STUDY: u32 = 9;
    const TICKS: u64 = 120;
    let markets = ["NYC", "DFW", "SEA"];
    let change_tick = |node: u32| 40 + 7 * (node % 3) as u64 + (node / 3) as u64;
    let value = |node: u32, k: u64| {
        let h = mix(0x57A6, node as u64, k);
        if h.is_multiple_of(17) {
            return f64::NAN;
        }
        let mut v = 80.0 + node as f64 + (h % 1000) as f64 / 500.0;
        if node < STUDY && k >= change_tick(node) {
            v += if node % 3 == 1 { -9.0 } else { 6.0 };
        }
        v
    };

    let mut inv = Inventory::new();
    for i in 0..STUDY * 2 {
        let market = markets[(i % 3) as usize];
        inv.push(
            format!("n{i}"),
            NfType::ENodeB,
            Attributes::new().with("market", market),
        );
    }
    let mut topo = Topology::with_capacity(STUDY as usize * 2);
    for i in 0..STUDY {
        topo.add_edge(NodeId(i), NodeId(i + STUDY));
    }
    let scope = ChangeScope {
        changes: (0..STUDY)
            .map(|n| (NodeId(n), change_tick(n) * 60))
            .collect(),
    };
    let minutes: std::collections::BTreeSet<u64> = scope.changes.values().copied().collect();
    assert!(minutes.len() >= 3, "staggered: {minutes:?}");
    let mut rule = VerificationRule::standard(
        "staggered",
        vec![
            KpiQuery::expecting("thr", true, Expectation::Any),
            KpiQuery::monitor("lat", false),
        ],
    );
    rule.location_attributes = vec!["market".into()];

    let adapter = ClosureAdapter(move |node: NodeId, _: &str, _: Option<usize>| {
        Some(TimeSeries::new(
            0,
            60,
            (0..TICKS).map(|k| value(node.0, k)).collect(),
        ))
    });
    let fanned = verify_rule(&adapter, &rule, &scope, &inv, &topo).unwrap();
    let reference = verify_rule_sequential(&adapter, &rule, &scope, &inv, &topo).unwrap();

    let engine = StreamingVerifier::new(
        vec![rule.clone()],
        scope.clone(),
        inv.clone(),
        topo.clone(),
        StreamConfig::default(),
        Tracer::noop(),
    );
    for k in 0..TICKS {
        for node in 0..STUDY * 2 {
            for kpi in ["thr", "lat"] {
                engine.offer(StreamSample {
                    node: NodeId(node),
                    kpi: kpi.into(),
                    carrier: None,
                    minute: k * 60,
                    value: value(node, k),
                });
            }
        }
        engine.pump();
    }
    let streamed = engine.poll_verdicts().unwrap();

    for kr in &fanned.kpis {
        assert_eq!(kr.per_location.len(), markets.len());
        assert!(
            kr.per_location.iter().all(|l| l.analysis.is_ok()),
            "every market slice must be analyzable, or the case is vacuous"
        );
    }
    let fanned = [fanned];
    assert_reports_bit_equal(&fanned, &[reference]).unwrap();
    assert_reports_bit_equal(&streamed, &fanned).unwrap();
}
