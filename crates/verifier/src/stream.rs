//! Streaming (online) verification: the batch verifier restructured
//! around continuous ingestion.
//!
//! The batch path loads complete before/after series and fans (KPI ×
//! location) units once; a production feed is 349 KPI equations ×
//! ~100k nodes arriving one sample at a time. This module keeps the
//! batch path's exact statistics while moving the data plane online:
//!
//! * [`SampleRouter`] — the backpressure-aware ingest edge: a bounded
//!   queue that sheds the **oldest** sample when full (freshest data wins
//!   on overload) and counts what it shed. A drain hands the queue's
//!   buffer to the pump and takes the previous one back, so a steady feed
//!   allocates nothing per pump;
//! * [`SeriesStore`] — per-(node, KPI, carrier) window state on a fixed
//!   sampling grid, tolerant of gaps, duplicates, and out-of-order
//!   delivery. A sample finds its stream from borrowed parts (KPI name →
//!   `(node, carrier)` → window state): no owned key is built per sample.
//!   Implements [`DataAdapter`], so the batch analytics read it like any
//!   other feed;
//! * [`StreamingVerifier`] — the engine: [`offer`](StreamingVerifier::offer)
//!   enqueues, [`pump`](StreamingVerifier::pump) drains and applies the
//!   samples in arrival order on the calling thread (each study stream
//!   feeds a per-sample [`MultiTimescaleDetector`] for low-latency change
//!   signals), and [`poll_verdicts`](StreamingVerifier::poll_verdicts)
//!   re-runs the rule fan through the batch facade itself
//!   ([`verify_rules_traced`] over the store, so one
//!   [`SeriesCache`](crate::SeriesCache) per poll).
//!
//! The pump is deliberately not fanned: applying one sample costs a few
//! hundred nanoseconds, starting one worker thread costs as much as
//! 250–500 samples, and no caller in the repository hands a pump more than
//! ~1 000 samples (DESIGN.md § *Ingest path* has the arithmetic).
//!
//! **Correctness bar:** after replaying a feed sample-by-sample (any
//! delivery order, any pump cadence), `poll_verdicts` is
//! verdict-identical — p-value bits included — to
//! [`verify_rules`](crate::verify_rules) over the assembled batch, because
//! both paths share one implementation and the store reassembles the
//! exact series. The per-sample detectors are a latency optimization
//! (they gate verdict recomputation and surface live change events),
//! never a different answer.

use crate::adapter::DataAdapter;
use crate::analysis::ChangeScope;
use crate::rules::VerificationRule;
use crate::verify::{verify_rules_traced, VerificationReport};
use cornet_obs::Tracer;
use cornet_stats::{quantile, MultiTimescaleDetector, TimeSeries, TimescaleShift};
use cornet_types::{Inventory, NodeId, Result, Topology};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::Instant;

/// One KPI measurement in flight.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamSample {
    /// Measured node.
    pub node: NodeId,
    /// KPI name in the rule vocabulary.
    pub kpi: String,
    /// Carrier confinement, if the feed is per-carrier.
    pub carrier: Option<usize>,
    /// Sample timestamp, minutes since epoch (must sit on the grid).
    pub minute: u64,
    /// Measured value; NaN marks an explicit missing sample.
    pub value: f64,
}

/// Streaming-engine tuning.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Sampling grid of the feed, minutes per step.
    pub step_minutes: u64,
    /// Bounded ingest-queue capacity; overflow sheds the oldest sample.
    pub queue_capacity: usize,
    /// Two-window size of the per-sample changepoint detectors.
    pub detect_window: usize,
    /// Detection threshold in robust sigma units.
    pub detect_threshold: f64,
    /// Coarsening factors of the detector lanes.
    pub detect_timescales: Vec<usize>,
    /// Per-sample latency observations retained for quantile queries.
    pub latency_cap: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            step_minutes: 60,
            queue_capacity: 65_536,
            detect_window: 8,
            detect_threshold: 5.0,
            detect_timescales: vec![1, 24],
            latency_cap: 1 << 20,
        }
    }
}

/// Outcome of offering one sample to the router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Enqueued without displacement.
    Queued,
    /// Enqueued, but the queue was full and the oldest sample was shed.
    ShedOldest,
}

/// The bounded, drop-oldest ingest queue.
///
/// Production feeds burst; verification must never apply backpressure to
/// the collection pipeline (a stalled collector loses *everything*). The
/// router therefore always accepts the new sample and, when full, sheds
/// the oldest queued one — the freshest data is what a go/no-go decision
/// needs — while counting the loss for the `stream.samples_shed` counter.
pub struct SampleRouter {
    queue: Mutex<SampleBuffer>,
    capacity: usize,
    accepted: AtomicU64,
    shed: AtomicU64,
}

/// Samples in flight, each with its enqueue instant.
type SampleBuffer = VecDeque<(StreamSample, Instant)>;

impl SampleRouter {
    /// Router with the given queue capacity (at least 1). The queue starts
    /// without storage and grows as `offer` fills it, never past
    /// `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        SampleRouter {
            queue: Mutex::new(SampleBuffer::new()),
            capacity: capacity.max(1),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Enqueue one sample, shedding the oldest when full.
    pub fn offer(&self, sample: StreamSample) -> IngestOutcome {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let outcome = if q.len() >= self.capacity {
            q.pop_front();
            self.shed.fetch_add(1, Ordering::Relaxed);
            IngestOutcome::ShedOldest
        } else {
            IngestOutcome::Queued
        };
        q.push_back((sample, Instant::now()));
        self.accepted.fetch_add(1, Ordering::Relaxed);
        outcome
    }

    /// Take everything currently queued by trading buffers: the queue
    /// continues in `emptied` (the buffer the previous drain took, since
    /// consumed), so a steady feed alternates between two buffers and
    /// allocates nothing per drain.
    fn drain_into(&self, emptied: &mut SampleBuffer) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::swap(&mut *q, emptied);
    }

    /// Samples currently waiting.
    pub fn depth(&self) -> usize {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Samples accepted since construction.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Samples shed since construction.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

/// Per-stream window state: the grid buffer plus (for study streams) the
/// per-sample detector.
struct StreamState {
    start_minute: u64,
    values: Vec<f64>,
    detector: Option<MultiTimescaleDetector>,
}

impl StreamState {
    /// Append one grid slot; the detector sees it as a batch replay would.
    fn append(&mut self, value: f64, fired: &mut Vec<TimescaleShift>) {
        self.values.push(value);
        if let Some(d) = &mut self.detector {
            fired.extend(d.push(value));
        }
    }

    /// Apply one sample, adding the raw detector candidates it fires to
    /// `fired`; `Err(())` when the timestamp is off-grid.
    fn apply(
        &mut self,
        minute: u64,
        value: f64,
        step: u64,
        fired: &mut Vec<TimescaleShift>,
    ) -> std::result::Result<(), ()> {
        if self.values.is_empty() {
            self.start_minute = minute;
            self.append(value, fired);
            return Ok(());
        }
        if minute >= self.start_minute {
            let offset = minute - self.start_minute;
            if !offset.is_multiple_of(step) {
                return Err(());
            }
            let idx = (offset / step) as usize;
            if idx >= self.values.len() {
                // In-order append, after filling any gap: the skipped grid
                // slots are missing samples.
                while self.values.len() < idx {
                    self.append(f64::NAN, fired);
                }
                self.append(value, fired);
            } else {
                // Late or duplicate delivery: the grid slot is corrected
                // (last write wins) but the detector, which has already
                // consumed this index, is not rewound — detection is a
                // low-latency signal; verdicts re-read the full buffer.
                self.values[idx] = value;
            }
        } else {
            // Out-of-order sample before the first seen one: grow the
            // grid backwards.
            let gap = self.start_minute - minute;
            if !gap.is_multiple_of(step) {
                return Err(());
            }
            let pad = (gap / step) as usize;
            let mut grown = Vec::with_capacity(pad + self.values.len());
            grown.push(value);
            grown.resize(pad, f64::NAN);
            grown.extend_from_slice(&self.values);
            self.values = grown;
            self.start_minute = minute;
        }
        Ok(())
    }
}

/// The stream table: KPI name → `(node, carrier)` → window state, which a
/// lookup reads with borrowed parts only.
type Streams = HashMap<String, HashMap<(NodeId, Option<usize>), StreamState>>;

/// Assembled window state behind a [`DataAdapter`] face.
///
/// The store is the streaming sibling of
/// [`SeriesCache`](crate::SeriesCache): where the cache memoizes series
/// fetched from elsewhere, the store *is* the series, grown one sample at
/// a time. Verdict polls wrap it in a fresh `SeriesCache` so each stream
/// is assembled once per poll no matter how many rules, slices, or
/// timescales read it.
///
/// One lock guards the table: a pump holds it for writing over its whole
/// batch, a read holds it while it copies one series out.
pub struct SeriesStore {
    step_minutes: u64,
    streams: RwLock<Streams>,
}

impl SeriesStore {
    /// Empty store on the given sampling grid.
    pub fn new(step_minutes: u64) -> Self {
        SeriesStore {
            step_minutes: step_minutes.max(1),
            streams: RwLock::new(Streams::new()),
        }
    }

    /// Distinct streams currently held.
    pub fn stream_count(&self) -> usize {
        let streams = self.streams.read().unwrap_or_else(|e| e.into_inner());
        streams.values().map(HashMap::len).sum()
    }
}

impl DataAdapter for SeriesStore {
    fn series(&self, node: NodeId, kpi: &str, carrier: Option<usize>) -> Option<TimeSeries> {
        let streams = self.streams.read().unwrap_or_else(|e| e.into_inner());
        let state = streams.get(kpi)?.get(&(node, carrier))?;
        if state.values.is_empty() {
            return None;
        }
        Some(TimeSeries::new(
            state.start_minute,
            self.step_minutes,
            state.values.clone(),
        ))
    }
}

/// A live change signal from one study stream's per-sample detector.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamDetection {
    /// Stream identity.
    pub node: NodeId,
    /// KPI name.
    pub kpi: String,
    /// Carrier confinement.
    pub carrier: Option<usize>,
    /// Coarsening factor of the lane that fired.
    pub timescale: usize,
    /// Grid minute of the first sample after the shift.
    pub minute: u64,
    /// Post-window median minus pre-window median (normalized units of
    /// the lane).
    pub delta: f64,
    /// Detection strength in robust sigma units.
    pub score: f64,
}

/// Counters of one [`StreamingVerifier::pump`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// Samples drained and applied.
    pub processed: usize,
    /// Samples refused for off-grid timestamps.
    pub rejected: usize,
    /// Raw detector candidates fired.
    pub detections: usize,
}

/// Cumulative engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Samples accepted by the router.
    pub accepted: u64,
    /// Samples shed by the bounded queue (drop-oldest).
    pub shed: u64,
    /// Samples applied to window state.
    pub processed: u64,
    /// Samples refused for off-grid timestamps.
    pub rejected: u64,
    /// Raw detector candidates fired.
    pub detections: u64,
}

/// The streaming verification engine.
pub struct StreamingVerifier {
    rules: Vec<VerificationRule>,
    scope: ChangeScope,
    inventory: Inventory,
    topology: Topology,
    config: StreamConfig,
    store: SeriesStore,
    router: SampleRouter,
    /// The pump's batch buffer, empty between pumps.
    batch: Mutex<SampleBuffer>,
    tracer: Tracer,
    dirty: AtomicBool,
    cached_reports: Mutex<Option<Vec<VerificationReport>>>,
    detections: Mutex<Vec<StreamDetection>>,
    latencies_us: Mutex<Vec<f64>>,
    processed: AtomicU64,
    rejected: AtomicU64,
    detections_total: AtomicU64,
}

impl StreamingVerifier {
    /// Engine over the given rules and change scope.
    pub fn new(
        rules: Vec<VerificationRule>,
        scope: ChangeScope,
        inventory: Inventory,
        topology: Topology,
        config: StreamConfig,
        tracer: Tracer,
    ) -> Self {
        let store = SeriesStore::new(config.step_minutes);
        let router = SampleRouter::new(config.queue_capacity);
        StreamingVerifier {
            rules,
            scope,
            inventory,
            topology,
            config,
            store,
            router,
            batch: Mutex::new(SampleBuffer::new()),
            tracer,
            dirty: AtomicBool::new(false),
            cached_reports: Mutex::new(None),
            detections: Mutex::new(Vec::new()),
            latencies_us: Mutex::new(Vec::new()),
            processed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            detections_total: AtomicU64::new(0),
        }
    }

    /// The rules under evaluation.
    pub fn rules(&self) -> &[VerificationRule] {
        &self.rules
    }

    /// The change scope under verification.
    pub fn scope(&self) -> &ChangeScope {
        &self.scope
    }

    /// The window state (read-side adapter view).
    pub fn store(&self) -> &SeriesStore {
        &self.store
    }

    /// Offer one sample to the bounded ingest queue.
    pub fn offer(&self, sample: StreamSample) -> IngestOutcome {
        let outcome = self.router.offer(sample);
        if outcome == IngestOutcome::ShedOldest {
            self.tracer.incr("stream.samples_shed", 1);
        }
        outcome
    }

    /// Drain the queue and apply every sample, in arrival order, on the
    /// calling thread.
    pub fn pump(&self) -> PumpStats {
        let mut batch = self.batch.lock().unwrap_or_else(|e| e.into_inner());
        self.router.drain_into(&mut batch);
        if batch.is_empty() {
            return PumpStats::default();
        }
        let mut span = self.tracer.span("stream.pump");
        span.attr("batch", batch.len());

        let step = self.config.step_minutes;
        let mut stats = PumpStats::default();
        {
            let mut streams = self
                .store
                .streams
                .write()
                .unwrap_or_else(|e| e.into_inner());
            let mut detections = self.detections.lock().unwrap_or_else(|e| e.into_inner());
            let mut latencies = self.latencies_us.lock().unwrap_or_else(|e| e.into_inner());
            let first_new = detections.len();
            let mut fired = Vec::new();
            for (sample, enqueued) in batch.drain(..) {
                let of_kpi = match streams.get_mut(&sample.kpi) {
                    Some(of_kpi) => of_kpi,
                    None => streams.entry(sample.kpi.clone()).or_default(),
                };
                // A stream is created at its first sample; study streams
                // get a detector.
                let state = of_kpi
                    .entry((sample.node, sample.carrier))
                    .or_insert_with(|| StreamState {
                        start_minute: 0,
                        values: Vec::new(),
                        detector: self.scope.changes.contains_key(&sample.node).then(|| {
                            MultiTimescaleDetector::new(
                                &self.config.detect_timescales,
                                self.config.detect_window,
                                self.config.detect_threshold,
                            )
                        }),
                    });
                match state.apply(sample.minute, sample.value, step, &mut fired) {
                    Ok(()) => stats.processed += 1,
                    Err(()) => stats.rejected += 1,
                }
                stats.detections += fired.len();
                for TimescaleShift { timescale, shift } in fired.drain(..) {
                    let native = shift.index * timescale;
                    detections.push(StreamDetection {
                        node: sample.node,
                        kpi: sample.kpi.clone(),
                        carrier: sample.carrier,
                        timescale,
                        minute: state.start_minute + native as u64 * step,
                        delta: shift.delta,
                        score: shift.score,
                    });
                }
                if latencies.len() < self.config.latency_cap {
                    latencies.push(enqueued.elapsed().as_secs_f64() * 1e6);
                }
            }
            // A pump reports stream by stream, each stream's detections in
            // arrival order (the sort is stable).
            detections[first_new..]
                .sort_by(|a, b| (a.node, &a.kpi, a.carrier).cmp(&(b.node, &b.kpi, b.carrier)));
        }
        if stats.processed > 0 {
            self.dirty.store(true, Ordering::Release);
        }
        self.processed
            .fetch_add(stats.processed as u64, Ordering::Relaxed);
        self.rejected
            .fetch_add(stats.rejected as u64, Ordering::Relaxed);
        self.detections_total
            .fetch_add(stats.detections as u64, Ordering::Relaxed);
        self.tracer
            .incr("stream.samples_processed", stats.processed as u64);
        self.tracer
            .incr("stream.samples_rejected", stats.rejected as u64);
        self.tracer
            .incr("stream.detections", stats.detections as u64);
        if span.is_recording() {
            span.attr("processed", stats.processed);
            span.attr("rejected", stats.rejected);
            span.attr("detections", stats.detections);
            span.finish();
        }
        stats
    }

    /// Current verdicts over everything ingested so far.
    ///
    /// Recomputes only when new samples landed since the last poll
    /// (detector-gated staleness); otherwise the cached reports are
    /// returned. The fan is the batch [`verify_rules_traced`] over the
    /// store (one [`SeriesCache`](crate::SeriesCache) per poll), so a full
    /// replay is verdict- and p-value-bit-identical to
    /// [`verify_rules`](crate::verify_rules).
    pub fn poll_verdicts(&self) -> Result<Vec<VerificationReport>> {
        if !self.dirty.swap(false, Ordering::AcqRel) {
            if let Some(cached) = &*self
                .cached_reports
                .lock()
                .unwrap_or_else(|e| e.into_inner())
            {
                return Ok(cached.clone());
            }
        }
        let mut span = self.tracer.span("stream.poll_verdicts");
        let parent = span.is_recording().then(|| span.id());
        let reports = verify_rules_traced(
            &self.store,
            &self.rules,
            &self.scope,
            &self.inventory,
            &self.topology,
            &self.tracer,
            parent,
        );
        if span.is_recording() {
            span.attr("rules", self.rules.len());
            span.attr("ok", reports.is_ok());
            span.finish();
        }
        // A failed fan leaves the state stale: the next poll must run the
        // fan again, not serve the last success as if it were current.
        let reports = reports.inspect_err(|_| self.dirty.store(true, Ordering::Release))?;
        *self
            .cached_reports
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(reports.clone());
        Ok(reports)
    }

    /// Live detections recorded so far (raw per-sample candidates), emptying
    /// the buffer: pump by pump, within a pump grouped by stream in
    /// `(node, KPI, carrier)` order, within a stream in arrival order.
    pub fn take_detections(&self) -> Vec<StreamDetection> {
        std::mem::take(&mut *self.detections.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Cumulative counters.
    pub fn stats(&self) -> IngestStats {
        IngestStats {
            accepted: self.router.accepted(),
            shed: self.router.shed(),
            processed: self.processed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            detections: self.detections_total.load(Ordering::Relaxed),
        }
    }

    /// Quantile of the per-sample detection latency (seconds from enqueue
    /// to applied state + detector update), e.g. `0.99` for the p99.
    /// `None` until at least one sample has been processed.
    pub fn detection_latency_quantile(&self, q: f64) -> Option<f64> {
        let lat = self.latencies_us.lock().unwrap_or_else(|e| e.into_inner());
        if lat.is_empty() {
            return None;
        }
        Some(quantile(&lat, q) / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::ClosureAdapter;
    use crate::rules::{Expectation, KpiQuery};
    use crate::verify::{verify_rules, GoNoGo};
    use cornet_types::{Attributes, NfType};

    fn fixture() -> (Inventory, Topology) {
        let mut inv = Inventory::new();
        for i in 0..8 {
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new().with("market", if i % 2 == 0 { "NYC" } else { "DFW" }),
            );
        }
        let mut topo = Topology::with_capacity(8);
        for i in 0..4u32 {
            topo.add_edge(NodeId(i), NodeId(i + 4));
        }
        (inv, topo)
    }

    fn feed_value(node: NodeId, k: u64, delta: f64) -> f64 {
        let minute = k * 60;
        let wiggle = ((k * 11 + node.0 as u64 * 3) % 5) as f64 * 0.15;
        let mut v = 100.0 + wiggle;
        if node.0 < 4 && minute >= 6000 {
            v += delta;
        }
        v
    }

    fn scope() -> ChangeScope {
        ChangeScope::simultaneous(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)], 6000)
    }

    fn rule() -> VerificationRule {
        let mut r = VerificationRule::standard(
            "stream",
            vec![KpiQuery::expecting("thr", true, Expectation::Improve)],
        );
        r.location_attributes = vec!["market".into()];
        r
    }

    fn engine(config: StreamConfig) -> StreamingVerifier {
        let (inv, topo) = fixture();
        StreamingVerifier::new(vec![rule()], scope(), inv, topo, config, Tracer::noop())
    }

    #[test]
    fn replayed_stream_matches_batch_verdicts() {
        let delta = 20.0;
        let e = engine(StreamConfig::default());
        // Interleave nodes sample-by-sample, like a real feed.
        for k in 0..200u64 {
            for n in 0..8u32 {
                e.offer(StreamSample {
                    node: NodeId(n),
                    kpi: "thr".into(),
                    carrier: None,
                    minute: k * 60,
                    value: feed_value(NodeId(n), k, delta),
                });
            }
            if k % 17 == 0 {
                e.pump();
            }
        }
        e.pump();
        let streamed = e.poll_verdicts().unwrap();

        let (inv, topo) = fixture();
        let adapter = ClosureAdapter(move |node: NodeId, _: &str, _: Option<usize>| {
            Some(TimeSeries::new(
                0,
                60,
                (0..200u64).map(|k| feed_value(node, k, delta)).collect(),
            ))
        });
        let batch = verify_rules(&adapter, &[rule()], &scope(), &inv, &topo).unwrap();
        assert_eq!(streamed.len(), batch.len());
        for (s, b) in streamed.iter().zip(&batch) {
            assert_eq!(s.decision, b.decision);
            for (sk, bk) in s.kpis.iter().zip(&b.kpis) {
                assert_eq!(sk.overall.verdict, bk.overall.verdict);
                assert_eq!(sk.overall.p_value.to_bits(), bk.overall.p_value.to_bits());
                assert_eq!(
                    sk.overall.relative_shift.to_bits(),
                    bk.overall.relative_shift.to_bits()
                );
            }
        }
        assert_eq!(streamed[0].decision, GoNoGo::Go);
    }

    #[test]
    fn out_of_order_and_duplicate_delivery_reaches_same_state() {
        let e = engine(StreamConfig::default());
        // Deliver minutes in a scrambled order with duplicates.
        let minutes: Vec<u64> = (0..40u64).map(|k| (k * 23) % 40).collect();
        for &k in &minutes {
            e.offer(StreamSample {
                node: NodeId(0),
                kpi: "thr".into(),
                carrier: None,
                minute: k * 60,
                value: k as f64,
            });
        }
        // A duplicate correction.
        e.offer(StreamSample {
            node: NodeId(0),
            kpi: "thr".into(),
            carrier: None,
            minute: 0,
            value: 0.0,
        });
        e.pump();
        let series = e.store().series(NodeId(0), "thr", None).unwrap();
        assert_eq!(series.start_minute, 0);
        assert_eq!(series.values, (0..40).map(|k| k as f64).collect::<Vec<_>>());
    }

    #[test]
    fn off_grid_samples_are_rejected_and_counted() {
        let e = engine(StreamConfig::default());
        e.offer(StreamSample {
            node: NodeId(0),
            kpi: "thr".into(),
            carrier: None,
            minute: 0,
            value: 1.0,
        });
        e.offer(StreamSample {
            node: NodeId(0),
            kpi: "thr".into(),
            carrier: None,
            minute: 61, // off the 60-minute grid
            value: 2.0,
        });
        let stats = e.pump();
        assert_eq!(stats.processed, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(e.stats().rejected, 1);
    }

    #[test]
    fn bounded_queue_sheds_oldest_and_counts() {
        let config = StreamConfig {
            queue_capacity: 4,
            ..Default::default()
        };
        let e = engine(config);
        for k in 0..10u64 {
            e.offer(StreamSample {
                node: NodeId(0),
                kpi: "thr".into(),
                carrier: None,
                minute: k * 60,
                value: k as f64,
            });
        }
        assert_eq!(e.stats().shed, 6);
        e.pump();
        let series = e.store().series(NodeId(0), "thr", None).unwrap();
        // The four freshest survived; the shed prefix shows up as leading
        // gaps once a later sample sets the grid backwards — here the
        // first surviving sample is minute 360.
        assert_eq!(series.start_minute, 360);
        assert_eq!(series.values, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn queue_starts_empty_and_settles_on_two_buffers() {
        let e = engine(StreamConfig::default());
        let capacities = || {
            let queue = e.router.queue.lock().unwrap().capacity();
            (queue, e.batch.lock().unwrap().capacity())
        };
        assert_eq!(capacities(), (0, 0), "nothing reserved up front");
        let mut settled = None;
        for round in 0..6 {
            for k in 0..100u64 {
                e.offer(StreamSample {
                    node: NodeId(0),
                    kpi: "thr".into(),
                    carrier: None,
                    minute: (round * 100 + k) * 60,
                    value: 1.0,
                });
            }
            assert_eq!(e.pump().processed, 100);
            if round >= 2 {
                let now = capacities();
                let (a, b) = *settled.get_or_insert(now);
                assert!(now == (a, b) || now == (b, a), "no growth once warm");
            }
        }
        let (queue, batch) = settled.unwrap();
        assert!(queue >= 100 && batch >= 100, "both buffers are reused");
    }

    #[test]
    fn failed_poll_is_not_answered_from_the_cache() {
        let e = engine(StreamConfig::default());
        let offer_all = |value_of: &dyn Fn(NodeId, u64) -> f64, ticks: std::ops::Range<u64>| {
            for k in ticks {
                for n in 0..8u32 {
                    e.offer(StreamSample {
                        node: NodeId(n),
                        kpi: "thr".into(),
                        carrier: None,
                        minute: k * 60,
                        value: value_of(NodeId(n), k),
                    });
                }
            }
            e.pump();
        };
        offer_all(&|n, k| feed_value(n, k, 20.0), 0..200);
        assert_eq!(e.poll_verdicts().unwrap()[0].decision, GoNoGo::Go);
        // Corrections zero every pre-change sample: no stream has a usable
        // baseline any more, so the overall unit — and with it the fan —
        // fails.
        offer_all(&|_, _| 0.0, 0..100);
        let first = e.poll_verdicts();
        assert!(first.is_err(), "{first:?}");
        let second = e.poll_verdicts();
        assert_eq!(
            second.map(|_| ()).map_err(|e| e.to_string()),
            Err(first.unwrap_err().to_string()),
            "the failure stands until new samples arrive"
        );
        // Restoring the feed restores the verdict.
        offer_all(&|n, k| feed_value(n, k, 20.0), 0..100);
        assert_eq!(e.poll_verdicts().unwrap()[0].decision, GoNoGo::Go);
    }

    #[test]
    fn detectors_fire_on_study_streams_and_gate_recompute() {
        let config = StreamConfig {
            detect_window: 4,
            detect_timescales: vec![1],
            ..Default::default()
        };
        let e = engine(config);
        for k in 0..60u64 {
            let v = if k < 30 { 100.0 } else { 140.0 } + (k % 3) as f64 * 0.05;
            e.offer(StreamSample {
                node: NodeId(1),
                kpi: "thr".into(),
                carrier: None,
                minute: k * 60,
                value: v,
            });
            // Control stream: flat, no detector (node 5 not in scope).
            e.offer(StreamSample {
                node: NodeId(5),
                kpi: "thr".into(),
                carrier: None,
                minute: k * 60,
                value: 100.0,
            });
        }
        let stats = e.pump();
        assert!(stats.detections > 0, "step must fire the detector");
        let detections = e.take_detections();
        assert!(detections.iter().all(|d| d.node == NodeId(1)));
        let d = &detections[0];
        assert_eq!(d.timescale, 1);
        assert!(
            (d.minute as i64 - 1800).abs() <= 4 * 60,
            "shift located near minute 1800, got {}",
            d.minute
        );
        assert!(d.delta > 0.0);
        assert!(e.detection_latency_quantile(0.99).unwrap() >= 0.0);
    }

    #[test]
    fn poll_caches_until_new_samples_arrive() {
        let e = engine(StreamConfig::default());
        for k in 0..200u64 {
            for n in 0..8u32 {
                e.offer(StreamSample {
                    node: NodeId(n),
                    kpi: "thr".into(),
                    carrier: None,
                    minute: k * 60,
                    value: feed_value(NodeId(n), k, 20.0),
                });
            }
        }
        e.pump();
        let first = e.poll_verdicts().unwrap();
        let second = e.poll_verdicts().unwrap();
        assert_eq!(first[0].duration, second[0].duration, "cached, not rerun");
        // New data invalidates the cache.
        e.offer(StreamSample {
            node: NodeId(0),
            kpi: "thr".into(),
            carrier: None,
            minute: 200 * 60,
            value: 120.0,
        });
        e.pump();
        let third = e.poll_verdicts().unwrap();
        assert_eq!(third[0].decision, first[0].decision);
    }
}
