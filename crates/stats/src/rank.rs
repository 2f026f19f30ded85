//! Nonparametric rank tests.
//!
//! CORNET's verifier "uses a robust rank-order test of medians" (§3.5.2,
//! citing Feltovich 2003 and Lanzante 1996) to compare the predicted and
//! measured post-change study series. We implement the Fligner–Policello
//! robust rank-order test plus the classical Wilcoxon–Mann–Whitney test as
//! a baseline comparator; both use large-sample normal approximations.

use crate::descriptive::median;
use crate::normal::two_sided_p;

/// Direction of the detected difference between two samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// The first sample sits above the second.
    Up,
    /// The first sample sits below the second.
    Down,
    /// No resolvable direction (identical medians or degenerate input).
    None,
}

/// Result of a two-sample rank test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankTestResult {
    /// Standard-normal test statistic.
    pub z: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Median of the first sample minus median of the second.
    pub median_diff: f64,
    /// Direction implied by the median difference.
    pub direction: Direction,
}

impl RankTestResult {
    /// Whether the difference is significant at level `alpha`.
    pub fn significant(&self, alpha: f64) -> bool {
        self.p_value.is_finite() && self.p_value < alpha
    }

    pub(crate) fn from_z(z: f64, xs: &[f64], ys: &[f64]) -> Self {
        let md = median(xs) - median(ys);
        let direction = if !md.is_finite() || md == 0.0 {
            Direction::None
        } else if md > 0.0 {
            Direction::Up
        } else {
            Direction::Down
        };
        RankTestResult {
            z,
            p_value: two_sided_p(z),
            median_diff: md,
            direction,
        }
    }

    fn degenerate(xs: &[f64], ys: &[f64]) -> Self {
        let mut r = Self::from_z(f64::NAN, xs, ys);
        r.p_value = f64::NAN;
        r
    }
}

/// Placement count of `v` in `other`: the number of elements of `other`
/// strictly below `v`, counting ties as one half.
fn placement(v: f64, other: &[f64]) -> f64 {
    let mut below = 0.0;
    for &o in other {
        if o < v {
            below += 1.0;
        } else if o == v {
            below += 0.5;
        }
    }
    below
}

/// Placements of every `v ∈ values` against a pre-sorted `other_sorted`:
/// two binary searches per value instead of a full scan. Counts below and
/// tie counts are small integers, exactly representable in `f64`, so the
/// result is bit-identical to the naive scan.
fn placements_sorted(values: &[f64], other_sorted: &[f64]) -> Vec<f64> {
    values
        .iter()
        .map(|&v| {
            let below = other_sorted.partition_point(|&o| o < v);
            let not_above = other_sorted.partition_point(|&o| o <= v);
            below as f64 + 0.5 * (not_above - below) as f64
        })
        .collect()
}

/// Sort a copy ascending; only callable on NaN-free data.
fn sorted_copy(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN-free input"));
    v
}

/// Fligner–Policello robust rank-order test of medians.
///
/// Unlike Wilcoxon–Mann–Whitney it does not assume equal variances or equal
/// shapes of the two distributions — exactly why the paper picks it for KPI
/// comparisons where a change can alter both level and variability.
///
/// Placements are computed by sorting each sample once and binary-searching
/// (O((n+m)·log(n+m))) instead of the naive all-pairs scan (O(n·m)); the two
/// paths are bit-identical (the naive scan is kept as the reference of the
/// crate's equivalence property tests). Inputs containing NaN fall back to the
/// naive scan, which treats NaN comparisons as "not below, not tied".
///
/// Returns a degenerate result (NaN statistic) when either sample has fewer
/// than two observations or placements have zero variance with equal sums.
pub fn robust_rank_order(xs: &[f64], ys: &[f64]) -> RankTestResult {
    if xs.len() < 2 || ys.len() < 2 {
        return RankTestResult::degenerate(xs, ys);
    }
    let has_nan = xs.iter().chain(ys).any(|v| v.is_nan());
    let (px, py) = if has_nan {
        (
            xs.iter().map(|&v| placement(v, ys)).collect(),
            ys.iter().map(|&v| placement(v, xs)).collect(),
        )
    } else {
        let xs_sorted = sorted_copy(xs);
        let ys_sorted = sorted_copy(ys);
        (
            placements_sorted(xs, &ys_sorted),
            placements_sorted(ys, &xs_sorted),
        )
    };
    finish_robust_rank_order(&px, &py, xs, ys)
}

/// Reference implementation of [`robust_rank_order`] with O(n·m) placement
/// scans, for the equivalence property tests.
#[cfg(test)]
pub(crate) fn robust_rank_order_naive(xs: &[f64], ys: &[f64]) -> RankTestResult {
    if xs.len() < 2 || ys.len() < 2 {
        return RankTestResult::degenerate(xs, ys);
    }
    let px: Vec<f64> = xs.iter().map(|&v| placement(v, ys)).collect();
    let py: Vec<f64> = ys.iter().map(|&v| placement(v, xs)).collect();
    finish_robust_rank_order(&px, &py, xs, ys)
}

/// Shared tail of the FP test once placements are known.
fn finish_robust_rank_order(px: &[f64], py: &[f64], xs: &[f64], ys: &[f64]) -> RankTestResult {
    let px_sum: f64 = px.iter().sum();
    let py_sum: f64 = py.iter().sum();
    let px_bar = px_sum / xs.len() as f64;
    let py_bar = py_sum / ys.len() as f64;
    let vx: f64 = px.iter().map(|p| (p - px_bar) * (p - px_bar)).sum();
    let vy: f64 = py.iter().map(|p| (p - py_bar) * (p - py_bar)).sum();
    let denom_sq = vx + vy + px_bar * py_bar;
    if denom_sq <= 0.0 {
        // All placements identical: either the samples are fully separated
        // (infinite evidence) or fully tied (no evidence).
        let z = if px_sum == py_sum {
            0.0
        } else if px_sum > py_sum {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
        let mut r = RankTestResult::from_z(z, xs, ys);
        r.p_value = if z == 0.0 { 1.0 } else { 0.0 };
        return r;
    }
    let z = (px_sum - py_sum) / (2.0 * denom_sq.sqrt());
    RankTestResult::from_z(z, xs, ys)
}

/// Midranks of the pooled sample `xs ++ ys`.
fn midranks(pooled: &[f64]) -> Vec<f64> {
    let n = pooled.len();
    let mut idx: Vec<usize> = (0..n).collect();
    // total_cmp: a real total order, panic-free even when NaNs slip in.
    idx.sort_by(|&a, &b| pooled[a].total_cmp(&pooled[b]));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && pooled[idx[j + 1]] == pooled[idx[i]] {
            j += 1;
        }
        // Average rank for the tie group spanning sorted positions i..=j.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Wilcoxon–Mann–Whitney U test with tie-corrected normal approximation.
pub fn mann_whitney_u(xs: &[f64], ys: &[f64]) -> RankTestResult {
    let (m, n) = (xs.len(), ys.len());
    if m == 0 || n == 0 {
        return RankTestResult::degenerate(xs, ys);
    }
    let pooled: Vec<f64> = xs.iter().chain(ys).copied().collect();
    let ranks = midranks(&pooled);
    let r1: f64 = ranks[..m].iter().sum();
    let u = r1 - (m * (m + 1)) as f64 / 2.0;
    let mu = (m * n) as f64 / 2.0;
    let nn = (m + n) as f64;
    // Tie correction over pooled tie-group sizes.
    let mut sorted = pooled.clone();
    sorted.sort_unstable_by(f64::total_cmp);
    let mut tie_term = 0.0;
    let mut i = 0;
    while i < sorted.len() {
        let mut j = i;
        while j + 1 < sorted.len() && sorted[j + 1] == sorted[i] {
            j += 1;
        }
        let t = (j - i + 1) as f64;
        tie_term += t * t * t - t;
        i = j + 1;
    }
    let var = (m * n) as f64 / 12.0 * ((nn + 1.0) - tie_term / (nn * (nn - 1.0)));
    if var <= 0.0 {
        let mut r = RankTestResult::from_z(0.0, xs, ys);
        r.p_value = 1.0;
        return r;
    }
    let z = (u - mu) / var.sqrt();
    RankTestResult::from_z(z, xs, ys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_not_significant() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let r = robust_rank_order(&xs, &xs);
        assert!(!r.significant(0.05));
        assert_eq!(r.direction, Direction::None);
        let m = mann_whitney_u(&xs, &xs);
        assert!(!m.significant(0.05));
    }

    #[test]
    fn shifted_samples_detected() {
        let xs: Vec<f64> = (0..30).map(|i| 10.0 + (i % 5) as f64 * 0.1).collect();
        let ys: Vec<f64> = (0..30).map(|i| 12.0 + (i % 5) as f64 * 0.1).collect();
        let r = robust_rank_order(&ys, &xs);
        assert!(
            r.significant(0.01),
            "clear +2 shift must be significant, got p={}",
            r.p_value
        );
        assert_eq!(r.direction, Direction::Up);
        let m = mann_whitney_u(&ys, &xs);
        assert!(m.significant(0.01));
        assert_eq!(m.direction, Direction::Up);
    }

    #[test]
    fn direction_down() {
        let hi: Vec<f64> = (0..20).map(|i| 5.0 + (i as f64) * 0.01).collect();
        let lo: Vec<f64> = (0..20).map(|i| 1.0 + (i as f64) * 0.01).collect();
        let r = robust_rank_order(&lo, &hi);
        assert_eq!(r.direction, Direction::Down);
        assert!(r.z < 0.0);
    }

    #[test]
    fn unequal_variance_still_behaves() {
        // FP test's raison d'être: one noisy sample, one tight sample,
        // same median — should NOT flag a difference.
        let tight: Vec<f64> = (0..40)
            .map(|i| 10.0 + ((i % 3) as f64 - 1.0) * 0.01)
            .collect();
        let noisy: Vec<f64> = (0..40)
            .map(|i| 10.0 + ((i % 9) as f64 - 4.0) * 2.0)
            .collect();
        let r = robust_rank_order(&tight, &noisy);
        assert!(
            !r.significant(0.01),
            "equal medians, unequal variance: p={}",
            r.p_value
        );
    }

    #[test]
    fn degenerate_inputs() {
        assert!(robust_rank_order(&[1.0], &[2.0, 3.0]).p_value.is_nan());
        assert!(mann_whitney_u(&[], &[1.0]).p_value.is_nan());
    }

    #[test]
    fn fully_separated_samples() {
        let lo = [1.0, 2.0, 3.0];
        let hi = [10.0, 11.0, 12.0];
        let r = robust_rank_order(&hi, &lo);
        assert!(r.significant(0.05));
        assert_eq!(r.direction, Direction::Up);
    }

    #[test]
    fn all_tied_samples() {
        let a = [5.0; 10];
        let b = [5.0; 10];
        let r = robust_rank_order(&a, &b);
        assert!((r.p_value - 1.0).abs() < 1e-6);
        let m = mann_whitney_u(&a, &b);
        assert!((m.p_value - 1.0).abs() < 1e-6);
    }

    #[test]
    fn midranks_handle_ties() {
        let ranks = midranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(ranks, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn mann_whitney_symmetry() {
        let xs = [1.0, 3.0, 5.0, 7.0, 9.0, 11.0];
        let ys = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0];
        let a = mann_whitney_u(&xs, &ys);
        let b = mann_whitney_u(&ys, &xs);
        assert!((a.z + b.z).abs() < 1e-9, "swapping samples flips the sign");
        assert!((a.p_value - b.p_value).abs() < 1e-9);
    }
}
