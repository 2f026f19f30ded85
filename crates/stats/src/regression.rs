//! Robust regression between study and control KPI series.
//!
//! The verifier "creates a robust regression model between the study
//! group (S) and control group (C) KPI time-series for the interval before
//! the change, S = βC" (§3.5.2), then predicts the post-change study series
//! from the post-change control series. Two estimators are provided:
//!
//! * [`ratio_regression`] — the paper's through-origin model `S = βC`, with
//!   β estimated as the median of pointwise ratios (resistant to outliers);
//! * [`theil_sen`] — the classical Theil–Sen line `S = α + βC` (median of
//!   pairwise slopes), useful when KPIs have an additive offset. Exact up
//!   to [`THEIL_SEN_PAIR_CAP`] pairwise slopes, seeded-sampled beyond it
//!   so multi-timescale series of tens of thousands of points stay
//!   tractable ([`theil_sen_exact`] / [`theil_sen_seeded`] give explicit
//!   control).
//!
//! None of the estimators panic: a study/control length mismatch is a data
//! fault that must not abort a campaign mid-flight, so mismatched inputs
//! yield the documented degenerate fit instead (`β = 1` for the ratio
//! model, a flat line through the median for Theil–Sen).

use crate::descriptive::median;

/// Pairwise-slope budget above which [`theil_sen`] switches from the exact
/// O(n²) estimator to seeded sampling. 32 768 pairs ≈ n = 257 points —
/// far above any per-node KPI series, so verifier fits stay exact; only
/// campaign-scale aggregate series sample.
pub const THEIL_SEN_PAIR_CAP: usize = 32_768;

/// Fixed seed for the sampled pairs of the default [`theil_sen`] entry
/// point; one seed means one deterministic answer per input.
const THEIL_SEN_DEFAULT_SEED: u64 = 0x7E11_5E2D;

/// splitmix64 step — deterministic, platform-stable pseudo-randomness for
/// pair sampling (no dependency on the `rand` crate's stream stability).
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fitted robust linear relation `y ≈ intercept + slope · x`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RobustFit {
    /// Intercept α (zero for the through-origin ratio model).
    pub intercept: f64,
    /// Slope β.
    pub slope: f64,
}

impl RobustFit {
    /// Predict y for a single x.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }

    /// Predict a whole series.
    pub fn predict_series(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.predict(x)).collect()
    }

    /// Median absolute residual of the fit on `(xs, ys)` — a robust
    /// goodness-of-fit figure the verifier can threshold on. Mismatched
    /// lengths are truncated to the common prefix (pairing stops at the
    /// shorter series).
    pub fn median_abs_residual(&self, xs: &[f64], ys: &[f64]) -> f64 {
        let resid: Vec<f64> = xs
            .iter()
            .zip(ys)
            .map(|(&x, &y)| (y - self.predict(x)).abs())
            .collect();
        median(&resid)
    }
}

/// Through-origin robust ratio regression `S = βC` (§3.5.2).
///
/// β is the median of the pointwise ratios `s_i / c_i`, skipping pairs with
/// `c_i == 0`. Falls back to β = 1 when no usable pair exists (identical
/// prediction — the verifier then compares raw series). A length mismatch
/// between the two series is a data fault, not a programming invariant:
/// rather than panicking mid-campaign it returns the same β = 1 degenerate
/// fit, which downstream analysis reads as "no usable relation".
pub fn ratio_regression(control: &[f64], study: &[f64]) -> RobustFit {
    if control.len() != study.len() {
        return RobustFit {
            intercept: 0.0,
            slope: 1.0,
        };
    }
    let ratios: Vec<f64> = control
        .iter()
        .zip(study)
        .filter(|(&c, _)| c != 0.0)
        .map(|(&c, &s)| s / c)
        .filter(|r| r.is_finite())
        .collect();
    let slope = if ratios.is_empty() {
        1.0
    } else {
        median(&ratios)
    };
    RobustFit {
        intercept: 0.0,
        slope,
    }
}

/// Theil–Sen estimator: slope = median of pairwise slopes, intercept =
/// median of `y_i − slope · x_i`.
///
/// Exact (all O(n²) pairs) while the pair count stays at or below
/// [`THEIL_SEN_PAIR_CAP`]; beyond that it samples `THEIL_SEN_PAIR_CAP`
/// pairs with a fixed internal seed, so long multi-timescale series cost
/// O(cap + n) instead of materializing tens of millions of slopes. Same
/// input ⇒ same output, always. Mismatched lengths return the flat
/// degenerate fit instead of panicking.
pub fn theil_sen(xs: &[f64], ys: &[f64]) -> RobustFit {
    theil_sen_seeded(xs, ys, THEIL_SEN_PAIR_CAP, THEIL_SEN_DEFAULT_SEED)
}

/// Exact Theil–Sen over every pairwise slope, whatever the cost. Reference
/// implementation for the sampled path; prefer [`theil_sen`] in production
/// code.
pub fn theil_sen_exact(xs: &[f64], ys: &[f64]) -> RobustFit {
    if xs.len() != ys.len() {
        return degenerate_line(ys);
    }
    let n = xs.len();
    let mut slopes = Vec::with_capacity(n * (n.saturating_sub(1)) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = xs[j] - xs[i];
            if dx != 0.0 {
                slopes.push((ys[j] - ys[i]) / dx);
            }
        }
    }
    fit_from_slopes(slopes, xs, ys)
}

/// Theil–Sen with an explicit pairwise-slope budget and sampling seed.
///
/// When the full pair count `n(n−1)/2` fits within `pair_cap` the estimate
/// is exact (identical to [`theil_sen_exact`]); otherwise `pair_cap`
/// pairs are drawn from a splitmix64 stream keyed on `seed`, so the
/// sampled estimate is deterministic per `(input, cap, seed)`. Pairs with
/// `dx == 0` are skipped, not redrawn, keeping the draw count bounded.
pub fn theil_sen_seeded(xs: &[f64], ys: &[f64], pair_cap: usize, seed: u64) -> RobustFit {
    if xs.len() != ys.len() {
        return degenerate_line(ys);
    }
    let n = xs.len();
    let total_pairs = n.saturating_sub(1) * n / 2;
    if total_pairs <= pair_cap {
        return theil_sen_exact(xs, ys);
    }
    let mut slopes = Vec::with_capacity(pair_cap);
    let mut state = seed;
    for _ in 0..pair_cap {
        state = splitmix(state);
        let i = (state % n as u64) as usize;
        state = splitmix(state);
        let mut j = (state % (n as u64 - 1)) as usize;
        if j >= i {
            j += 1; // distinct index, uniform over the n−1 others
        }
        let dx = xs[j] - xs[i];
        if dx != 0.0 {
            slopes.push((ys[j] - ys[i]) / dx);
        }
    }
    fit_from_slopes(slopes, xs, ys)
}

/// Flat line through the median of `ys` — the fit used when no slope is
/// estimable (degenerate x, mismatched inputs).
fn degenerate_line(ys: &[f64]) -> RobustFit {
    RobustFit {
        intercept: median(ys),
        slope: 0.0,
    }
}

/// Median-of-slopes fit tail shared by the exact and sampled paths.
fn fit_from_slopes(slopes: Vec<f64>, xs: &[f64], ys: &[f64]) -> RobustFit {
    if slopes.is_empty() {
        return degenerate_line(ys);
    }
    let slope = median(&slopes);
    let intercepts: Vec<f64> = xs.iter().zip(ys).map(|(&x, &y)| y - slope * x).collect();
    RobustFit {
        intercept: median(&intercepts),
        slope,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_recovers_exact_proportionality() {
        let c = [10.0, 20.0, 30.0, 40.0];
        let s: Vec<f64> = c.iter().map(|x| 1.5 * x).collect();
        let fit = ratio_regression(&c, &s);
        assert!((fit.slope - 1.5).abs() < 1e-12);
        assert_eq!(fit.intercept, 0.0);
        assert!((fit.predict(100.0) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_resists_outliers() {
        let c = [10.0, 20.0, 30.0, 40.0, 50.0];
        let mut s: Vec<f64> = c.iter().map(|x| 2.0 * x).collect();
        s[2] = 900.0; // corrupted measurement
        let fit = ratio_regression(&c, &s);
        assert!(
            (fit.slope - 2.0).abs() < 1e-9,
            "median ratio shrugs off one outlier"
        );
    }

    #[test]
    fn ratio_skips_zero_controls() {
        let c = [0.0, 10.0, 20.0];
        let s = [5.0, 30.0, 60.0];
        let fit = ratio_regression(&c, &s);
        assert!((fit.slope - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_all_zero_controls_falls_back() {
        let fit = ratio_regression(&[0.0, 0.0], &[1.0, 2.0]);
        assert_eq!(fit.slope, 1.0);
    }

    #[test]
    fn theil_sen_recovers_line() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 0.5 * x).collect();
        let fit = theil_sen(&xs, &ys);
        assert!((fit.slope - 0.5).abs() < 1e-12);
        assert!((fit.intercept - 3.0).abs() < 1e-12);
    }

    #[test]
    fn theil_sen_resists_outliers() {
        let xs: Vec<f64> = (0..21).map(|i| i as f64).collect();
        let mut ys: Vec<f64> = xs.iter().map(|x| 1.0 + 2.0 * x).collect();
        ys[5] = -500.0;
        ys[15] = 700.0;
        let fit = theil_sen(&xs, &ys);
        assert!(
            (fit.slope - 2.0).abs() < 0.05,
            "slope {} should stay near 2",
            fit.slope
        );
    }

    #[test]
    fn theil_sen_degenerate_x() {
        let fit = theil_sen(&[1.0, 1.0, 1.0], &[4.0, 5.0, 6.0]);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 5.0);
    }

    #[test]
    fn length_mismatch_is_degenerate_not_fatal() {
        // A truncated control feed mid-campaign must not abort the
        // process: both estimators return their documented degenerate fit.
        let fit = ratio_regression(&[1.0, 2.0, 3.0], &[2.0, 4.0]);
        assert_eq!(fit.slope, 1.0);
        assert_eq!(fit.intercept, 0.0);
        let fit = theil_sen(&[1.0, 2.0, 3.0], &[4.0, 5.0]);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 4.5);
    }

    #[test]
    fn sampled_theil_sen_is_exact_below_cap() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 - 0.25 * x).collect();
        assert_eq!(theil_sen(&xs, &ys), theil_sen_exact(&xs, &ys));
    }

    #[test]
    fn sampled_theil_sen_tracks_exact_above_cap() {
        // 400 points → 79 800 pairs; a cap of 5 000 forces sampling.
        let xs: Vec<f64> = (0..400).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 7.0 + 1.5 * x + ((x * 13.0) % 5.0 - 2.0)) // slope 1.5 + bounded wobble
            .collect();
        let exact = theil_sen_exact(&xs, &ys);
        let sampled = theil_sen_seeded(&xs, &ys, 5_000, 1);
        assert!(
            (sampled.slope - exact.slope).abs() < 0.05,
            "sampled {} vs exact {}",
            sampled.slope,
            exact.slope
        );
        // Determinism: same seed, same answer; different seed may differ.
        assert_eq!(sampled, theil_sen_seeded(&xs, &ys, 5_000, 1));
    }

    #[test]
    fn median_abs_residual_zero_on_perfect_fit() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 6.0];
        let fit = ratio_regression(&xs, &ys);
        assert_eq!(fit.median_abs_residual(&xs, &ys), 0.0);
    }
}
