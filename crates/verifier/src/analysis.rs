//! Robust statistical pre/post analysis (§3.5.2).
//!
//! The pipeline per KPI:
//!
//! 1. each study node's series is **aligned** at its own change time and
//!    **normalized** by its pre-change median (Mercury-style, handling the
//!    staggered roll-out) — asked of the adapter
//!    ([`DataAdapter::aligned`]), which under a
//!    [`SeriesCache`](crate::adapter::SeriesCache) answers each (stream,
//!    minute) once for all the units that share it;
//! 2. aligned study series are averaged into one relative-time series;
//!    control nodes are aligned at the median change time and averaged
//!    ([`DataAdapter::stacked`], once per reference minute under a cache);
//! 3. a robust **ratio regression** `S = βC` is fit on the pre-change
//!    interval;
//! 4. the post-change study series is **predicted** from the post-change
//!    control series (`Ŝ' = βC'`) and compared against the measured one
//!    with the **robust rank-order test**, at every configured timescale;
//! 5. the verdict is improvement / degradation / no-impact, oriented by
//!    the KPI's upward-good flag.

use crate::adapter::DataAdapter;
use cornet_stats::rank::Direction;
use cornet_stats::series::AggFn;
use cornet_stats::{median_in_place, ratio_regression, robust_rank_order, TimeSeries};
use cornet_types::{CornetError, NodeId, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which nodes changed, and when (minutes since epoch) — the staggered
/// roll-out scope produced by the `change_scope` building block.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChangeScope {
    /// Node → change execution minute.
    pub changes: BTreeMap<NodeId, u64>,
}

impl ChangeScope {
    /// Scope with every node changed at the same minute.
    pub fn simultaneous(nodes: &[NodeId], minute: u64) -> Self {
        ChangeScope {
            changes: nodes.iter().map(|&n| (n, minute)).collect(),
        }
    }

    /// Median change minute (control-group alignment reference).
    pub fn median_minute(&self) -> Option<u64> {
        if self.changes.is_empty() {
            return None;
        }
        let mut times: Vec<u64> = self.changes.values().copied().collect();
        times.sort_unstable();
        Some(times[times.len() / 2])
    }

    /// Study node list.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.changes.keys().copied().collect()
    }
}

/// Analysis tuning.
#[derive(Clone, Debug)]
pub struct AnalysisOptions {
    /// Timescale resampling factors to test.
    pub timescales: Vec<usize>,
    /// Significance level.
    pub alpha: f64,
    /// Minimum aligned samples required on each side of the change.
    pub min_samples: usize,
    /// Practical-significance floor: shifts smaller than this fraction of
    /// the predicted level are reported as no-impact even when the rank
    /// test resolves them (statistical ≠ operational significance).
    pub min_relative_shift: f64,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            timescales: vec![1, 24],
            alpha: 0.01,
            min_samples: 8,
            min_relative_shift: 0.01,
        }
    }
}

/// Direction-free statistical outcome of one KPI analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImpactVerdict {
    /// Statistically significant upward-good movement.
    Improvement,
    /// Statistically significant movement in the harmful direction.
    Degradation,
    /// No statistically resolvable impact.
    NoImpact,
}

/// Full result of analyzing one KPI over a change scope.
#[derive(Clone, Debug)]
pub struct KpiAnalysis {
    /// KPI name.
    pub kpi: String,
    /// Verdict oriented by `upward_good`.
    pub verdict: ImpactVerdict,
    /// Smallest p-value across timescales.
    pub p_value: f64,
    /// Relative median shift of measured vs predicted post series
    /// (positive = KPI moved up).
    pub relative_shift: f64,
    /// Timescale (resample factor) at which the verdict was reached.
    pub decisive_timescale: usize,
    /// Study nodes that actually had data.
    pub nodes_used: usize,
}

/// A per-node aligned series: (pre-change samples, post-change samples),
/// normalized, in relative time.
pub type Aligned = (Vec<f64>, Vec<f64>);

/// Split one node's series at its change minute and normalize both halves
/// by the pre-change median, so KPIs with different absolute levels (urban
/// vs rural nodes) can be pooled and series from nodes changed on
/// different days overlaid on one relative axis — the per-node half of
/// Mercury-style alignment, and the crate's only aligner. `None` when
/// either side is empty or the pre-change median is zero or undefined.
pub(crate) fn aligned_normalized(series: &TimeSeries, at_minute: u64) -> Option<Aligned> {
    let (pre, post) = (series.before(at_minute), series.after(at_minute));
    if pre.is_empty() || post.is_empty() {
        return None;
    }
    let mut clean: Vec<f64> = pre.iter().copied().filter(|v| !v.is_nan()).collect();
    let baseline = median_in_place(&mut clean);
    if !baseline.is_finite() || baseline == 0.0 {
        return None;
    }
    let normalized = |xs: &[f64]| xs.iter().map(|v| v / baseline).collect();
    Some((normalized(pre), normalized(post)))
}

/// Mean of the non-NaN values, summed in iteration order; NaN when every
/// value is missing.
fn clean_mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut clean = 0usize;
    let sum: f64 = values.filter(|v| !v.is_nan()).inspect(|_| clean += 1).sum();
    if clean == 0 {
        f64::NAN
    } else {
        sum / clean as f64
    }
}

/// Average a set of aligned series (right-aligned pre, left-aligned post).
pub(crate) fn stack(aligned: &[Arc<Aligned>]) -> Option<Aligned> {
    let pre_len = aligned.iter().map(|a| a.0.len()).min()?;
    let post_len = aligned.iter().map(|a| a.1.len()).min()?;
    if pre_len == 0 || post_len == 0 {
        return None;
    }
    let pre = (0..pre_len)
        .map(|i| clean_mean(aligned.iter().map(|a| a.0[a.0.len() - pre_len + i])))
        .collect();
    let post = (0..post_len)
        .map(|i| clean_mean(aligned.iter().map(|a| a.1[i])))
        .collect();
    Some((pre, post))
}

/// Resample a relative-time vector by averaging blocks of `factor`.
fn coarsen(xs: &[f64], factor: usize) -> Vec<f64> {
    if factor <= 1 {
        return xs.to_vec();
    }
    xs.chunks(factor)
        .map(|block| clean_mean(block.iter().copied()))
        .collect()
}

/// Analyze one KPI across a (possibly staggered) change scope.
pub fn analyze_kpi(
    adapter: &dyn DataAdapter,
    kpi: &str,
    carrier: Option<usize>,
    upward_good: bool,
    scope: &ChangeScope,
    control: &[NodeId],
    options: &AnalysisOptions,
) -> Result<KpiAnalysis> {
    // --- study side: per-node alignment + normalization.
    let study_aligned: Vec<Arc<Aligned>> = scope
        .changes
        .iter()
        .filter_map(|(&node, &minute)| adapter.aligned(node, kpi, carrier, minute))
        .collect();
    let nodes_used = study_aligned.len();
    let (study_pre, study_post) = stack(&study_aligned).ok_or_else(|| {
        CornetError::DataIntegrity(format!("no usable study series for KPI '{kpi}'"))
    })?;

    // --- control side, aligned at the median change time.
    let reference = scope
        .median_minute()
        .ok_or_else(|| CornetError::DataIntegrity("empty change scope".into()))?;

    // The study-vs-control regression needs a control group; without one
    // we fall back to a pre-vs-post self-comparison (β = 1 over a flat
    // control) — still useful, documented as weaker.
    let control = adapter
        .stacked(control, kpi, carrier, reference)
        .unwrap_or_else(|| Arc::new((vec![1.0; study_pre.len()], vec![1.0; study_post.len()])));
    let (control_pre, control_post) = &*control;

    // Harmonize lengths for the regression and the prediction.
    let pre_len = study_pre.len().min(control_pre.len());
    let post_len = study_post.len().min(control_post.len());
    if pre_len < options.min_samples || post_len < options.min_samples {
        return Err(CornetError::DataIntegrity(format!(
            "KPI '{kpi}': {pre_len} pre / {post_len} post samples, need {}",
            options.min_samples
        )));
    }
    let s_pre = &study_pre[study_pre.len() - pre_len..];
    let c_pre = &control_pre[control_pre.len() - pre_len..];
    let s_post = &study_post[..post_len];
    let c_post = &control_post[..post_len];

    // --- robust regression S = βC on the pre interval; predict post.
    let fit = ratio_regression(c_pre, s_pre);
    let predicted: Vec<f64> = fit.predict_series(c_post);

    // --- rank test at each timescale; keep the most significant.
    let mut best_p = f64::INFINITY;
    let mut best_dir = Direction::None;
    let mut decisive = *options.timescales.first().unwrap_or(&1);
    for &ts in &options.timescales {
        // Missing samples (NaN) must not reach the rank test: placement
        // comparisons against NaN are always false, silently biasing the
        // statistic. Drop the pair when either side is missing.
        let measured_raw = coarsen(s_post, ts);
        let pred_raw = coarsen(&predicted, ts);
        let (measured, pred): (Vec<f64>, Vec<f64>) = measured_raw
            .iter()
            .zip(&pred_raw)
            .filter(|(m, p)| !m.is_nan() && !p.is_nan())
            .map(|(m, p)| (*m, *p))
            .unzip();
        let r = robust_rank_order(&measured, &pred);
        if r.p_value.is_finite() && r.p_value < best_p {
            best_p = r.p_value;
            best_dir = r.direction;
            decisive = ts;
        }
    }
    let significant = best_p.is_finite() && best_p < options.alpha;

    // Relative shift of measured vs predicted medians.
    let med = |xs: &[f64]| cornet_stats::median(xs);
    let pred_med = med(&predicted);
    let relative_shift = if pred_med != 0.0 {
        (med(s_post) - pred_med) / pred_med.abs()
    } else {
        0.0
    };

    let practically_significant = relative_shift.abs() >= options.min_relative_shift;
    let verdict = if !significant || !practically_significant || best_dir == Direction::None {
        ImpactVerdict::NoImpact
    } else {
        let moved_up = best_dir == Direction::Up;
        if moved_up == upward_good {
            ImpactVerdict::Improvement
        } else {
            ImpactVerdict::Degradation
        }
    };

    Ok(KpiAnalysis {
        kpi: kpi.to_owned(),
        verdict,
        p_value: best_p,
        relative_shift,
        decisive_timescale: decisive,
        nodes_used,
    })
}

/// Location aggregation helper: averages several nodes' series into one
/// virtual stream (used by per-attribute verdicts).
pub fn aggregate_series(
    adapter: &dyn DataAdapter,
    nodes: &[NodeId],
    kpi: &str,
    carrier: Option<usize>,
    agg: AggFn,
) -> Option<TimeSeries> {
    let series: Vec<TimeSeries> = nodes
        .iter()
        .filter_map(|&n| adapter.series(n, kpi, carrier))
        .collect();
    let refs: Vec<&TimeSeries> = series.iter().collect();
    cornet_stats::series::merge(&refs, agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::ClosureAdapter;

    /// Synthetic feed: study nodes (id < 100) get `delta` added after
    /// their change minute; control nodes stay flat. Deterministic noise.
    fn adapter(delta: f64, change_minute: u64) -> impl DataAdapter {
        ClosureAdapter(move |node: NodeId, _kpi: &str, _carrier: Option<usize>| {
            let base = 100.0 + node.0 as f64;
            let values: Vec<f64> = (0..200u64)
                .map(|k| {
                    let minute = k * 60;
                    let wiggle = ((k * 7 + node.0 as u64) % 5) as f64 * 0.2;
                    let shift = if node.0 < 100 && minute >= change_minute {
                        delta
                    } else {
                        0.0
                    };
                    base + wiggle + shift
                })
                .collect();
            Some(TimeSeries::new(0, 60, values))
        })
    }

    fn scope() -> ChangeScope {
        // Staggered: three study nodes changed at slightly different times.
        ChangeScope {
            changes: [(NodeId(0), 6000), (NodeId(1), 6060), (NodeId(2), 6120)].into(),
        }
    }

    fn controls() -> Vec<NodeId> {
        vec![NodeId(100), NodeId(101), NodeId(102)]
    }

    #[test]
    fn align_and_normalize() {
        let s = TimeSeries::new(1000, 10, vec![10.0, 10.0, 10.0, 20.0, 20.0]);
        let (pre, post) = aligned_normalized(&s, 1030).unwrap();
        assert_eq!(pre, vec![1.0, 1.0, 1.0]);
        assert_eq!(post, vec![2.0, 2.0]);
        assert!(aligned_normalized(&s, 1000).is_none(), "nothing before");
        assert!(aligned_normalized(&s, 1050).is_none(), "nothing after");
    }

    #[test]
    fn normalize_fails_on_zero_baseline() {
        let s = TimeSeries::new(1000, 10, vec![0.0, 0.0, 5.0]);
        assert!(aligned_normalized(&s, 1020).is_none());
    }

    #[test]
    fn detects_improvement() {
        let a = adapter(20.0, 6000);
        let r = analyze_kpi(
            &a,
            "thr",
            None,
            true,
            &scope(),
            &controls(),
            &Default::default(),
        )
        .unwrap();
        assert_eq!(r.verdict, ImpactVerdict::Improvement, "p={}", r.p_value);
        assert!(r.relative_shift > 0.1);
        assert_eq!(r.nodes_used, 3);
    }

    #[test]
    fn detects_degradation_for_downward_good_kpi() {
        // Drop rate goes up → degradation when upward_good = false.
        let a = adapter(15.0, 6000);
        let r = analyze_kpi(
            &a,
            "drops",
            None,
            false,
            &scope(),
            &controls(),
            &Default::default(),
        )
        .unwrap();
        assert_eq!(r.verdict, ImpactVerdict::Degradation);
    }

    #[test]
    fn flat_change_is_no_impact() {
        let a = adapter(0.0, 6000);
        let r = analyze_kpi(
            &a,
            "thr",
            None,
            true,
            &scope(),
            &controls(),
            &Default::default(),
        )
        .unwrap();
        assert_eq!(r.verdict, ImpactVerdict::NoImpact, "p={}", r.p_value);
    }

    #[test]
    fn external_factor_hitting_both_groups_is_no_impact() {
        // A *proportional* shift applied to everyone (study and control) —
        // e.g. a traffic surge raising all counters 25%. The study/control
        // comparison must absorb it.
        let change_minute = 6000u64;
        let a = ClosureAdapter(move |node: NodeId, _: &str, _: Option<usize>| {
            let base = 100.0 + node.0 as f64;
            let values: Vec<f64> = (0..200u64)
                .map(|k| {
                    let minute = k * 60;
                    let wiggle = ((k * 3 + node.0 as u64) % 7) as f64 * 0.2;
                    let factor = if minute >= change_minute { 1.25 } else { 1.0 };
                    (base + wiggle) * factor
                })
                .collect();
            Some(TimeSeries::new(0, 60, values))
        });
        let r = analyze_kpi(
            &a,
            "thr",
            None,
            true,
            &scope(),
            &controls(),
            &Default::default(),
        )
        .unwrap();
        assert_eq!(
            r.verdict,
            ImpactVerdict::NoImpact,
            "study/control comparison must cancel the common shift, p={}",
            r.p_value
        );
    }

    #[test]
    fn subtle_impact_needs_coarser_timescale() {
        // Small shift vs per-sample noise: significant only after daily
        // averaging.
        let change_minute = 6000u64;
        let a = ClosureAdapter(move |node: NodeId, _: &str, _: Option<usize>| {
            let base = 100.0;
            let values: Vec<f64> = (0..192u64)
                .map(|k| {
                    let minute = k * 60;
                    // Deterministic pseudo-noise, sd ≈ 2.
                    let noise = (((k * 2654435761 + node.0 as u64 * 97) % 1000) as f64 / 1000.0
                        - 0.5)
                        * 7.0;
                    let shift = if node.0 < 100 && minute >= change_minute {
                        1.2
                    } else {
                        0.0
                    };
                    base + noise + shift
                })
                .collect();
            Some(TimeSeries::new(0, 60, values))
        });
        let fine_only = AnalysisOptions {
            timescales: vec![1],
            ..Default::default()
        };
        let multi = AnalysisOptions {
            timescales: vec![1, 24],
            ..Default::default()
        };
        let fine = analyze_kpi(&a, "thr", None, true, &scope(), &controls(), &fine_only).unwrap();
        let both = analyze_kpi(&a, "thr", None, true, &scope(), &controls(), &multi).unwrap();
        assert!(
            both.p_value <= fine.p_value,
            "coarser timescale should not hurt: {} vs {}",
            both.p_value,
            fine.p_value
        );
    }

    #[test]
    fn missing_data_is_a_data_integrity_error() {
        let a = ClosureAdapter(|_: NodeId, _: &str, _: Option<usize>| None);
        let err = analyze_kpi(&a, "thr", None, true, &scope(), &[], &Default::default());
        assert!(matches!(err, Err(CornetError::DataIntegrity(_))));
    }

    #[test]
    fn short_series_rejected() {
        let a = ClosureAdapter(|_: NodeId, _: &str, _: Option<usize>| {
            Some(TimeSeries::new(0, 60, vec![1.0; 10]))
        });
        let err = analyze_kpi(
            &a,
            "thr",
            None,
            true,
            &ChangeScope::simultaneous(&[NodeId(0)], 300),
            &[],
            &Default::default(),
        );
        assert!(matches!(err, Err(CornetError::DataIntegrity(_))), "{err:?}");
    }

    #[test]
    fn aggregate_series_merges_nodes() {
        let a = ClosureAdapter(|node: NodeId, _: &str, _: Option<usize>| {
            Some(TimeSeries::new(0, 60, vec![node.0 as f64; 4]))
        });
        let merged =
            aggregate_series(&a, &[NodeId(2), NodeId(4)], "thr", None, AggFn::Mean).unwrap();
        assert_eq!(merged.values, vec![3.0; 4]);
    }
}
