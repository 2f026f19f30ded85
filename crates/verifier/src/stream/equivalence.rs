//! The node-major stream table is the map-of-maps it replaced, on every
//! feed. The old table and its pump loop are kept here as the reference.
//! An engine and the reference take the same random feeds: shuffled,
//! duplicated and off-grid minutes, NaN values, carriers, five KPI names
//! interleaved, and nodes outside the inventory, pumped at a random
//! cadence. For inventory nodes every series
//! must be bit-equal and every detection the same, in the same order.
//! Samples for other nodes land in `rejected` and nowhere else. The suite
//! runs the default case count, so CI raises it with `PROPTEST_CASES`.

use super::*;
use cornet_types::{Attributes, NfType};
use proptest::prelude::*;
use std::collections::HashMap;

/// The stream table as it was: KPI name → `(node, carrier)` → window state.
type Streams = HashMap<String, HashMap<(NodeId, Option<usize>), StreamState>>;

/// The pump as it was, over the old table: every sample finds or opens
/// its stream, whatever its node.
#[derive(Default)]
struct Reference {
    streams: Streams,
    detections: Vec<StreamDetection>,
    processed: u64,
    rejected: u64,
    detected: u64,
}

impl Reference {
    fn pump(&mut self, batch: &[StreamSample], scope: &ChangeScope, config: &StreamConfig) {
        let step = config.step_minutes;
        let first_new = self.detections.len();
        let mut fired = Vec::new();
        for sample in batch {
            let state = self
                .streams
                .entry(sample.kpi.clone())
                .or_default()
                .entry((sample.node, sample.carrier))
                .or_insert_with(|| {
                    StreamState::new(scope.changes.contains_key(&sample.node).then(|| {
                        MultiTimescaleDetector::new(
                            &config.detect_timescales,
                            config.detect_window,
                            config.detect_threshold,
                        )
                    }))
                });
            match state.apply(sample.minute, sample.value, step, &mut fired) {
                Ok(()) => self.processed += 1,
                Err(()) => self.rejected += 1,
            }
            self.detected += fired.len() as u64;
            for TimescaleShift { timescale, shift } in fired.drain(..) {
                let native = shift.index * timescale;
                self.detections.push(StreamDetection {
                    node: sample.node,
                    kpi: sample.kpi.clone(),
                    carrier: sample.carrier,
                    timescale,
                    minute: state.start_minute + native as u64 * step,
                    delta: shift.delta,
                    score: shift.score,
                });
            }
        }
        self.detections[first_new..]
            .sort_by(|a, b| (a.node, &a.kpi, a.carrier).cmp(&(b.node, &b.kpi, b.carrier)));
    }

    fn series(&self, node: NodeId, kpi: &str, carrier: Option<usize>) -> Option<TimeSeries> {
        let state = self.streams.get(kpi)?.get(&(node, carrier))?;
        if state.values.is_empty() {
            return None;
        }
        Some(TimeSeries::new(
            state.start_minute,
            60,
            state.values.clone(),
        ))
    }

    fn stream_count(&self) -> usize {
        self.streams.values().map(HashMap::len).sum()
    }
}

const INVENTORY: u32 = 6;
const OUTSIDE: [u32; 4] = [INVENTORY, INVENTORY + 1, 4096, u32::MAX];
const KPIS: [&str; 5] = ["thr", "thr_dl", "drop", "lat", "é"];
const CARRIERS: [Option<usize>; 4] = [None, Some(0), Some(1), Some(7)];
const CHANGE_TICK: u64 = 15;

fn config() -> StreamConfig {
    StreamConfig {
        detect_window: 3,
        detect_threshold: 3.0,
        detect_timescales: vec![1, 4],
        ..StreamConfig::default()
    }
}

fn scope() -> ChangeScope {
    ChangeScope::simultaneous(&[NodeId(0), NodeId(1), NodeId(2)], CHANGE_TICK * 60)
}

fn engine() -> StreamingVerifier {
    let mut inv = Inventory::new();
    for i in 0..INVENTORY {
        inv.push(format!("n{i}"), NfType::ENodeB, Attributes::new());
    }
    let topo = Topology::with_capacity(INVENTORY as usize);
    StreamingVerifier::new(Vec::new(), scope(), inv, topo, config(), Tracer::noop())
}

/// Splitmix64 over a proptest-drawn seed.
struct Dice(u64);

impl Dice {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }
}

/// A feed over up to 16 streams: tick by tick, the streams in a fresh
/// order each tick, with gaps, off-grid minutes, NaN values and
/// duplicates, then local swaps so minutes arrive out of order.
fn feed(dice: &mut Dice) -> Vec<StreamSample> {
    let streams: Vec<(NodeId, &str, Option<usize>)> = (0..1 + dice.below(16))
        .map(|_| {
            let node = if dice.below(4) == 0 {
                dice.pick(&OUTSIDE)
            } else {
                dice.below(INVENTORY as usize) as u32
            };
            (NodeId(node), dice.pick(&KPIS), dice.pick(&CARRIERS))
        })
        .collect();
    let mut samples = Vec::new();
    let mut order: Vec<usize> = (0..streams.len()).collect();
    for k in 0..8 + dice.below(40) as u64 {
        for i in 0..order.len() {
            let j = dice.below(order.len());
            order.swap(i, j);
        }
        for &s in &order {
            let (node, kpi, carrier) = streams[s];
            let shifted = if k >= CHANGE_TICK { 40.0 } else { 0.0 };
            let mut sample = StreamSample {
                node,
                kpi: kpi.to_string(),
                carrier,
                minute: k * 60,
                value: 100.0 + s as f64 * 3.0 + shifted + dice.below(7) as f64 * 0.1,
            };
            match dice.below(32) {
                0 => continue,
                1 => sample.minute += 1 + dice.below(59) as u64,
                2 | 3 => sample.value = f64::NAN,
                4 | 5 => samples.push(StreamSample {
                    value: sample.value + 1.0,
                    ..sample.clone()
                }),
                _ => {}
            }
            samples.push(sample);
        }
    }
    let n = samples.len();
    for _ in 0..n / 6 {
        let i = dice.below(n);
        samples.swap(i, (i + 1 + dice.below(8)).min(n - 1));
    }
    samples
}

/// A series as bits, so NaN slots compare.
fn bits(s: Option<TimeSeries>) -> Option<(u64, u64, Vec<u64>)> {
    s.map(|s| {
        let values = s.values.iter().map(|v| v.to_bits()).collect();
        (s.start_minute, s.step_minutes, values)
    })
}

fn assert_same_detections(got: &[StreamDetection], want: &[StreamDetection]) {
    // `Debug` prints each float exactly, so equal text is equal bits.
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
}

/// Drive both with one feed, comparing after every pump and at the end;
/// the detections and the samples from outside the inventory seen.
fn check(seed: u64) -> (u64, u64) {
    let mut dice = Dice(seed);
    let samples = feed(&mut dice);
    let engine = engine();
    let mut reference = Reference::default();
    let inside = |s: &StreamSample| s.node.0 < INVENTORY;
    let mut outside = 0;
    let mut at = 0;
    while at < samples.len() {
        let batch = &samples[at..(at + 1 + dice.below(64)).min(samples.len())];
        at += batch.len();
        for sample in batch {
            engine.offer(sample.clone());
            outside += !inside(sample) as u64;
        }
        let kept: Vec<StreamSample> = batch.iter().filter(|s| inside(s)).cloned().collect();
        engine.pump();
        reference.pump(&kept, &scope(), &config());
        assert_same_detections(&engine.take_detections(), &reference.detections);
        reference.detections.clear();
        let stats = engine.stats();
        assert_eq!(stats.processed, reference.processed);
        assert_eq!(stats.rejected, reference.rejected + outside);
        assert_eq!(stats.detections, reference.detected);
    }
    for kpi in KPIS {
        for carrier in CARRIERS {
            for node in 0..INVENTORY {
                let node = NodeId(node);
                assert_eq!(
                    bits(engine.store().series(node, kpi, carrier)),
                    bits(reference.series(node, kpi, carrier)),
                    "{node:?} {kpi} {carrier:?}"
                );
            }
            for node in OUTSIDE {
                assert!(engine.store().series(NodeId(node), kpi, carrier).is_none());
            }
        }
    }
    assert_eq!(engine.store().stream_count(), reference.stream_count());
    (reference.detected, outside)
}

#[test]
fn fixed_feeds_agree() {
    let (detected, outside) = (0..64)
        .map(check)
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    assert!(detected > 100 && outside > 100, "{detected} {outside}");
}

proptest! {
    #[test]
    fn random_feeds_agree(seed in any::<u64>()) {
        check(seed);
    }
}
