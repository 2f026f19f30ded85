//! Descriptive statistics: means, medians, dispersion, quantiles.
//!
//! The verifier aggregates KPIs across configuration attributes using "the
//! average, median, or weighted average" (§3.5.1); robustness analyses use
//! the median absolute deviation as a resistant scale estimate.

/// Arithmetic mean. Returns `NaN` on empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Weighted arithmetic mean. Returns `NaN` on empty input or zero total
/// weight. Panics if lengths differ.
pub fn weighted_mean(xs: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(xs.len(), weights.len(), "values/weights length mismatch");
    let wsum: f64 = weights.iter().sum();
    if xs.is_empty() || wsum == 0.0 {
        return f64::NAN;
    }
    xs.iter().zip(weights).map(|(x, w)| x * w).sum::<f64>() / wsum
}

/// Sample standard deviation (n−1 denominator). `NaN` for fewer than two
/// observations.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    (ss / (xs.len() - 1) as f64).sqrt()
}

/// Median. Returns `NaN` on empty input. NaN inputs are sorted last and may
/// poison the result — callers should filter beforehand.
///
/// [`median_in_place`] over a copy of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    median_in_place(&mut xs.to_vec())
}

/// [`median`] by selection inside the caller's buffer: no allocation, and
/// `xs` comes back permuted.
///
/// Uses `select_nth_unstable_by` — O(n) expected instead of the O(n log n)
/// full sort a quantile needs — and reproduces [`quantile`]`(xs, 0.5)`
/// bit-for-bit: the even-length interpolation applies the exact same
/// `lo·(1−frac) + hi·frac` expression with `frac = 0.5`. Inputs containing
/// NaN fall back to the sort-based quantile so the (documented, deranged)
/// NaN ordering stays identical between the two paths.
pub fn median_in_place(xs: &mut [f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|v| v.is_nan()) {
        return quantile(xs, 0.5);
    }
    let n = xs.len();
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN-free input");
    let hi_idx = n / 2;
    let (left, hi, _) = xs.select_nth_unstable_by(hi_idx, cmp);
    let hi = *hi;
    if n % 2 == 1 {
        return hi;
    }
    // Even length: the lower middle is the maximum of the left partition.
    let lo = left.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    lo * (1.0 - 0.5) + hi * 0.5
}

/// Quantile by linear interpolation between order statistics (type-7, the
/// convention used by R and NumPy). `q` is clamped to `[0, 1]`.
///
/// Ordering uses `f64::total_cmp` — a genuine total order, so the sort can
/// never trip the standard library's inconsistent-comparator detection on
/// NaN inputs (positive NaNs rank above every number, negative NaNs
/// below).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median absolute deviation, scaled by 1.4826 to be consistent with the
/// standard deviation under normality. `NaN` on empty input.
pub fn mad(xs: &[f64]) -> f64 {
    let mut buf = xs.to_vec();
    let m = median_in_place(&mut buf);
    mad_in_place(&mut buf, m)
}

/// [`mad`] of the values in `xs` about their (already computed) median
/// `m`, overwriting `xs` with the absolute deviations. The deviations
/// carry no negative zero, so their median does not depend on the order
/// `xs` arrives in — a buffer [`median_in_place`] has permuted gives the
/// bits the original order gives.
pub fn mad_in_place(xs: &mut [f64], m: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    for x in xs.iter_mut() {
        *x = (*x - m).abs();
    }
    1.4826 * median_in_place(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn weighted_mean_basic() {
        assert_eq!(weighted_mean(&[1.0, 3.0], &[1.0, 3.0]), 2.5);
        assert!(weighted_mean(&[1.0], &[0.0]).is_nan());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weighted_mean_length_mismatch() {
        weighted_mean(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn std_dev_known_value() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        // Population sd is 2; sample sd is sqrt(32/7).
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!(std_dev(&[1.0]).is_nan());
    }

    #[test]
    fn mad_is_robust_to_outliers() {
        let clean = [10.0, 10.1, 9.9, 10.2, 9.8];
        let dirty = [10.0, 10.1, 9.9, 10.2, 1000.0];
        assert!(
            (mad(&clean) - mad(&dirty)).abs() < 0.2,
            "MAD should shrug off one outlier"
        );
        assert!(std_dev(&dirty) > 100.0, "sd blows up, motivating MAD");
    }
}
