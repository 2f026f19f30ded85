//! Regularly-sampled KPI time series, aggregation, and the before/after
//! split staggered-roll-out alignment is built on.
//!
//! KPIs arrive at a native granularity (minutes or hours) and the verifier
//! operates "on multiple time-scales after the change" (§3.5); staggered
//! roll-outs are handled "through time-alignment and normalization
//! analogous to Mercury" (§3.5.2) — the verifier's one aligner does that
//! over [`TimeSeries::before`] and [`TimeSeries::after`]. Timestamps are
//! plain minutes-since-epoch so this crate stays independent of
//! `cornet-types`.

/// How to combine samples when resampling or merging series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFn {
    /// Arithmetic mean of non-NaN samples.
    Mean,
    /// Sum of non-NaN samples (for counters).
    Sum,
    /// Median of non-NaN samples.
    Median,
}

impl AggFn {
    fn apply(self, xs: &[f64]) -> f64 {
        let clean: Vec<f64> = xs.iter().copied().filter(|v| !v.is_nan()).collect();
        if clean.is_empty() {
            return f64::NAN;
        }
        match self {
            AggFn::Mean => crate::descriptive::mean(&clean),
            AggFn::Sum => clean.iter().sum(),
            AggFn::Median => crate::descriptive::median(&clean),
        }
    }
}

/// A regularly sampled time series.
///
/// Missing measurements are `NaN` — production data feeds drop samples
/// (§5.3) and the analytics must be robust to that.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeries {
    /// Timestamp of the first sample, minutes since epoch.
    pub start_minute: u64,
    /// Sampling period in minutes.
    pub step_minutes: u64,
    /// Sample values; `NaN` marks a missing measurement.
    pub values: Vec<f64>,
}

impl TimeSeries {
    /// Construct a series; `step_minutes` must be nonzero.
    pub fn new(start_minute: u64, step_minutes: u64, values: Vec<f64>) -> Self {
        assert!(step_minutes > 0, "step must be nonzero");
        Self {
            start_minute,
            step_minutes,
            values,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Timestamp of sample `i`.
    pub fn time_of(&self, i: usize) -> u64 {
        self.start_minute + i as u64 * self.step_minutes
    }

    /// Index of the first sample at or after `minute`, or `len()` when the
    /// series ends before it.
    pub fn index_at(&self, minute: u64) -> usize {
        if minute <= self.start_minute {
            return 0;
        }
        let offset = minute - self.start_minute;
        (offset.div_ceil(self.step_minutes) as usize).min(self.values.len())
    }

    /// Samples strictly before `minute`.
    pub fn before(&self, minute: u64) -> &[f64] {
        let end = if minute <= self.start_minute {
            0
        } else {
            ((minute - self.start_minute) / self.step_minutes) as usize
        };
        let end = end.min(self.values.len());
        &self.values[..end]
    }

    /// Samples at or after `minute`.
    pub fn after(&self, minute: u64) -> &[f64] {
        &self.values[self.index_at(minute)..]
    }

    /// Resample to a coarser step (`factor` native steps per output sample)
    /// using `agg`. A trailing partial bucket is aggregated as-is.
    pub fn resample(&self, factor: usize, agg: AggFn) -> TimeSeries {
        assert!(factor > 0);
        let values: Vec<f64> = self.values.chunks(factor).map(|c| agg.apply(c)).collect();
        TimeSeries::new(self.start_minute, self.step_minutes * factor as u64, values)
    }

    /// Fraction of samples that are missing (NaN).
    pub fn missing_fraction(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().filter(|v| v.is_nan()).count() as f64 / self.values.len() as f64
    }
}

/// Merge several same-shape series element-wise with `agg` (location
/// aggregation across a group of nodes, §3.5.1).
///
/// All series must share `start_minute` and `step_minutes`; the result is
/// truncated to the shortest input. Returns `None` on empty input or
/// mismatched grids.
pub fn merge(series: &[&TimeSeries], agg: AggFn) -> Option<TimeSeries> {
    let first = series.first()?;
    if series
        .iter()
        .any(|s| s.start_minute != first.start_minute || s.step_minutes != first.step_minutes)
    {
        return None;
    }
    let len = series.iter().map(|s| s.len()).min()?;
    let mut values = Vec::with_capacity(len);
    let mut bucket = Vec::with_capacity(series.len());
    for i in 0..len {
        bucket.clear();
        bucket.extend(series.iter().map(|s| s.values[i]));
        values.push(agg.apply(&bucket));
    }
    Some(TimeSeries::new(
        first.start_minute,
        first.step_minutes,
        values,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new(1000, 10, values)
    }

    #[test]
    fn indexing_and_slicing() {
        let s = ts(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.time_of(2), 1020);
        assert_eq!(s.index_at(1020), 2);
        assert_eq!(s.index_at(1015), 2, "rounds up to the next sample");
        assert_eq!(s.before(1020), &[1.0, 2.0]);
        assert_eq!(s.after(1020), &[3.0, 4.0]);
        assert_eq!(s.before(500), &[] as &[f64]);
        assert_eq!(s.after(9999), &[] as &[f64]);
    }

    #[test]
    fn resample_mean_and_sum() {
        let s = ts(vec![1.0, 3.0, 5.0, 7.0, 9.0]);
        let r = s.resample(2, AggFn::Mean);
        assert_eq!(r.values, vec![2.0, 6.0, 9.0]);
        assert_eq!(r.step_minutes, 20);
        let r2 = s.resample(2, AggFn::Sum);
        assert_eq!(r2.values, vec![4.0, 12.0, 9.0]);
    }

    #[test]
    fn resample_skips_nans() {
        let s = ts(vec![1.0, f64::NAN, 5.0, f64::NAN]);
        let r = s.resample(2, AggFn::Mean);
        assert_eq!(r.values[0], 1.0);
        assert_eq!(r.values[1], 5.0);
    }

    #[test]
    fn merge_mean_across_nodes() {
        let a = ts(vec![1.0, 2.0, 3.0]);
        let b = ts(vec![3.0, 4.0, 5.0, 6.0]);
        let m = merge(&[&a, &b], AggFn::Mean).unwrap();
        assert_eq!(m.values, vec![2.0, 3.0, 4.0], "truncated to shortest");
    }

    #[test]
    fn merge_rejects_mismatched_grids() {
        let a = ts(vec![1.0]);
        let b = TimeSeries::new(0, 10, vec![1.0]);
        assert!(merge(&[&a, &b], AggFn::Mean).is_none());
        assert!(merge(&[], AggFn::Mean).is_none());
    }

    #[test]
    fn merge_ignores_missing_in_one_node() {
        let a = ts(vec![1.0, f64::NAN]);
        let b = ts(vec![3.0, 5.0]);
        let m = merge(&[&a, &b], AggFn::Mean).unwrap();
        assert_eq!(m.values, vec![2.0, 5.0]);
    }

    #[test]
    fn missing_fraction() {
        let s = ts(vec![1.0, f64::NAN, 3.0, f64::NAN]);
        assert_eq!(s.missing_fraction(), 0.5);
        assert_eq!(ts(vec![]).missing_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "step must be nonzero")]
    fn zero_step_panics() {
        TimeSeries::new(0, 0, vec![]);
    }
}
