//! Online (per-sample) variants of the batch changepoint kernel.
//!
//! The batch verifier loads complete before/after series and runs its
//! statistics once; a production feed (349 KPI equations × ~100k nodes)
//! arrives one sample at a time. The streaming verifier answers *verdicts*
//! by re-running the batch kernels over the series it has assembled (so
//! they are the batch verdicts by construction); what it needs per sample
//! is the low-latency "something just shifted" signal, and that is what
//! lives here:
//!
//! * [`OnlineLevelShiftDetector`] / [`MultiTimescaleDetector`] — windowed
//!   changepoint detection that updates per sample and replays to the
//!   same merged shift list as
//!   [`detect_level_shifts`](crate::detect_level_shifts) over
//!   [`coarsen`ed](crate::series::TimeSeries::resample) lanes.

use crate::changepoint::LevelShift;
use crate::descriptive::{mad_in_place, median_in_place};

/// Outcome of pushing one sample into a changepoint detector.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DetectorPush {
    /// A raw above-threshold candidate evaluated at this sample — the
    /// low-latency signal (fires before run merging settles).
    pub candidate: Option<LevelShift>,
    /// A merged detection whose run just closed — identical to the next
    /// element of the batch [`detect_level_shifts`] output.
    pub finalized: Option<LevelShift>,
}

/// Per-sample two-window level-shift detection.
///
/// Replays to the same result as [`detect_level_shifts`]: candidate `i`
/// becomes evaluable once `window` samples have arrived after it, and runs
/// of adjacent candidates merge keeping the strongest, exactly as the
/// batch fold does. A run is only finalized when a later candidate opens a
/// new run or [`finish`](Self::finish) is called.
#[derive(Clone, Debug)]
pub struct OnlineLevelShiftDetector {
    window: usize,
    threshold: f64,
    /// Ring of the last `2 × window` samples.
    buf: std::collections::VecDeque<f64>,
    /// Selection scratch: the clean samples of the ring's older and newer
    /// half, refilled on every push.
    pre: Vec<f64>,
    post: Vec<f64>,
    pushed: usize,
    pending: Option<LevelShift>,
}

impl OnlineLevelShiftDetector {
    /// Detector with symmetric windows of `window` samples (at least 2)
    /// and a threshold in robust sigma units.
    pub fn new(window: usize, threshold: f64) -> Self {
        assert!(window >= 2, "window must be at least 2");
        OnlineLevelShiftDetector {
            window,
            threshold,
            buf: std::collections::VecDeque::with_capacity(2 * window),
            pre: Vec::with_capacity(window),
            post: Vec::with_capacity(window),
            pushed: 0,
            pending: None,
        }
    }

    /// Samples absorbed so far.
    pub fn samples_seen(&self) -> usize {
        self.pushed
    }

    /// The currently open (unmerged) run representative, if any.
    pub fn pending(&self) -> Option<&LevelShift> {
        self.pending.as_ref()
    }

    /// Absorb one sample and evaluate the candidate it completes.
    pub fn push(&mut self, v: f64) -> DetectorPush {
        if self.buf.len() == 2 * self.window {
            self.buf.pop_front();
        }
        self.buf.push_back(v);
        self.pushed += 1;
        if self.buf.len() < 2 * self.window {
            return DetectorPush::default();
        }
        // The candidate index in batch terms: with n samples pushed, the
        // newest evaluable split is i = n − window; the ring holds exactly
        // xs[i−window .. i+window].
        let index = self.pushed - self.window;
        let clean = |v: &f64| !v.is_nan();
        let (pre, post) = (&mut self.pre, &mut self.post);
        pre.clear();
        pre.extend(self.buf.range(..self.window).copied().filter(clean));
        post.clear();
        post.extend(self.buf.range(self.window..).copied().filter(clean));
        if pre.len() < 2 || post.len() < 2 {
            return DetectorPush::default();
        }
        // The batch kernel's `median(post) − median(pre)` over
        // `mad(pre).max(1e-9·|median(pre)|).max(1e-12)`, with the one
        // pre-median serving all three of its uses.
        let pre_median = median_in_place(pre);
        let delta = median_in_place(post) - pre_median;
        let scale = mad_in_place(pre, pre_median)
            .max(1e-9 * pre_median.abs())
            .max(1e-12);
        let score = delta.abs() / scale;
        // A NaN score (infinite samples) is no candidate, as in the batch
        // kernel's `score >= threshold`.
        if score.is_nan() || score < self.threshold {
            return DetectorPush::default();
        }
        let shift = LevelShift {
            index,
            delta,
            score,
        };
        let finalized = match &mut self.pending {
            Some(last) if shift.index <= last.index + self.window => {
                if shift.score > last.score {
                    *last = shift;
                }
                None
            }
            pending => pending.replace(shift),
        };
        DetectorPush {
            candidate: Some(shift),
            finalized,
        }
    }

    /// Close the stream: the open run, if any, is final.
    pub fn finish(&mut self) -> Option<LevelShift> {
        self.pending.take()
    }
}

/// One coarsening lane of a [`MultiTimescaleDetector`].
#[derive(Clone, Debug)]
struct TimescaleLane {
    factor: usize,
    detector: OnlineLevelShiftDetector,
    bucket_fill: usize,
    bucket_sum: f64,
    bucket_clean: usize,
    /// Merged detections whose runs have closed, in batch order.
    finalized: Vec<LevelShift>,
}

impl TimescaleLane {
    /// Aggregate of the open bucket, matching the batch `coarsen`: mean of
    /// the non-NaN samples in arrival order, NaN when all are missing.
    fn bucket_value(&self) -> f64 {
        if self.bucket_clean == 0 {
            f64::NAN
        } else {
            self.bucket_sum / self.bucket_clean as f64
        }
    }
}

/// A detection event from one timescale lane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimescaleShift {
    /// The coarsening factor of the lane that fired.
    pub timescale: usize,
    /// The shift, with `index` in the lane's coarse sample space.
    pub shift: LevelShift,
}

/// Multi-timescale changepoint detection updating per sample.
///
/// Each configured factor gets a lane that block-averages `factor` native
/// samples (skipping NaN, exactly as the analysis-layer `coarsen` does)
/// and feeds a [`OnlineLevelShiftDetector`]. Replaying a series and
/// calling [`finish`](Self::finish) yields, per lane, the same shifts as
/// `detect_level_shifts(&coarsen(xs, factor), window, threshold)` — with
/// the one documented exception that a trailing partial bucket is only
/// aggregated at `finish`.
#[derive(Clone, Debug)]
pub struct MultiTimescaleDetector {
    lanes: Vec<TimescaleLane>,
}

impl MultiTimescaleDetector {
    /// Detector with one lane per coarsening factor (zero factors are
    /// treated as 1).
    pub fn new(timescales: &[usize], window: usize, threshold: f64) -> Self {
        MultiTimescaleDetector {
            lanes: timescales
                .iter()
                .map(|&f| TimescaleLane {
                    factor: f.max(1),
                    detector: OnlineLevelShiftDetector::new(window, threshold),
                    bucket_fill: 0,
                    bucket_sum: 0.0,
                    bucket_clean: 0,
                    finalized: Vec::new(),
                })
                .collect(),
        }
    }

    /// Absorb one native-granularity sample; returns raw candidates from
    /// every lane whose bucket completed and crossed the threshold.
    pub fn push(&mut self, v: f64) -> Vec<TimescaleShift> {
        let mut out = Vec::new();
        for lane in &mut self.lanes {
            lane.bucket_fill += 1;
            if !v.is_nan() {
                lane.bucket_sum += v;
                lane.bucket_clean += 1;
            }
            if lane.bucket_fill == lane.factor {
                let value = lane.bucket_value();
                lane.bucket_fill = 0;
                lane.bucket_sum = 0.0;
                lane.bucket_clean = 0;
                let result = lane.detector.push(value);
                lane.finalized.extend(result.finalized);
                if let Some(shift) = result.candidate {
                    out.push(TimescaleShift {
                        timescale: lane.factor,
                        shift,
                    });
                }
            }
        }
        out
    }

    /// Close the stream: flush partial buckets and open runs, returning
    /// the finalized shifts per lane in `(timescale, shifts)` form.
    pub fn finish(&mut self) -> Vec<(usize, Vec<LevelShift>)> {
        self.lanes
            .iter_mut()
            .map(|lane| {
                if lane.bucket_fill > 0 {
                    let value = lane.bucket_value();
                    lane.bucket_fill = 0;
                    lane.bucket_sum = 0.0;
                    lane.bucket_clean = 0;
                    let result = lane.detector.push(value);
                    lane.finalized.extend(result.finalized);
                }
                let mut shifts = std::mem::take(&mut lane.finalized);
                shifts.extend(lane.detector.finish());
                (lane.factor, shifts)
            })
            .collect()
    }
}

/// Replay a full series through a fresh [`OnlineLevelShiftDetector`] —
/// the batch-equivalence reference used by tests and benches.
pub fn replay_level_shifts(xs: &[f64], window: usize, threshold: f64) -> Vec<LevelShift> {
    let mut d = OnlineLevelShiftDetector::new(window, threshold);
    let mut out = Vec::new();
    for &v in xs {
        if let Some(s) = d.push(v).finalized {
            out.push(s);
        }
    }
    out.extend(d.finish());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::changepoint::detect_level_shifts;

    #[test]
    fn online_detector_replays_to_batch_shifts() {
        let mut xs: Vec<f64> = Vec::new();
        for i in 0..25 {
            xs.push(10.0 + ((i % 3) as f64 - 1.0) * 0.05);
        }
        for i in 0..25 {
            xs.push(14.0 + ((i % 3) as f64 - 1.0) * 0.05);
        }
        for i in 0..25 {
            xs.push(7.0 + ((i % 3) as f64 - 1.0) * 0.05);
        }
        xs[7] = f64::NAN;
        let batch = detect_level_shifts(&xs, 5, 5.0);
        let streamed = replay_level_shifts(&xs, 5, 5.0);
        assert_eq!(streamed, batch);
        assert_eq!(streamed.len(), 2);
    }

    #[test]
    fn online_detector_candidate_fires_before_run_closes() {
        let mut d = OnlineLevelShiftDetector::new(3, 4.0);
        let mut first_candidate = None;
        for i in 0..20 {
            let v = if i < 10 {
                5.0 + (i % 2) as f64 * 0.01
            } else {
                9.0 + (i % 2) as f64 * 0.01
            };
            let out = d.push(v);
            if out.candidate.is_some() && first_candidate.is_none() {
                first_candidate = Some(i);
            }
        }
        let at = first_candidate.expect("step must produce a candidate");
        assert!(at < 19, "candidate fired mid-stream, not only at finish");
        assert!(d.finish().is_some());
    }

    #[test]
    fn multi_timescale_matches_coarsened_batch() {
        let mut xs: Vec<f64> = Vec::new();
        for i in 0..240 {
            let base = if i < 120 { 50.0 } else { 58.0 };
            xs.push(base + ((i % 5) as f64 - 2.0) * 0.1);
        }
        xs[13] = f64::NAN;
        let coarsen = |xs: &[f64], f: usize| -> Vec<f64> {
            xs.chunks(f)
                .map(|c| {
                    let clean: Vec<f64> = c.iter().copied().filter(|v| !v.is_nan()).collect();
                    if clean.is_empty() {
                        f64::NAN
                    } else {
                        clean.iter().sum::<f64>() / clean.len() as f64
                    }
                })
                .collect()
        };
        let mut det = MultiTimescaleDetector::new(&[1, 4, 24], 4, 5.0);
        let mut candidates = 0usize;
        for &v in &xs {
            candidates += det.push(v).len();
        }
        assert!(candidates > 0, "the step must produce live candidates");
        let finished = det.finish();
        for (factor, shifts) in finished {
            let batch = detect_level_shifts(&coarsen(&xs, factor), 4, 5.0);
            assert_eq!(shifts, batch, "lane {factor} diverged from batch");
        }
    }

    #[test]
    fn multi_timescale_partial_bucket_flushes_at_finish() {
        // 10 samples at factor 4 → two full buckets + one partial; the
        // batch coarsen sees 3 coarse samples.
        let xs = [1.0; 10];
        let mut det = MultiTimescaleDetector::new(&[4], 2, 5.0);
        for &v in &xs {
            det.push(v);
        }
        let out = det.finish();
        assert_eq!(out.len(), 1);
        assert!(out[0].1.is_empty(), "flat series yields nothing");
    }
}
