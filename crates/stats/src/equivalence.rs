//! Property tests pinning the fast statistics kernels to their naive
//! reference implementations.
//!
//! The O((n+m) log(n+m)) rank placements, the selection-based median, and
//! the sampled Theil–Sen promise *bit identity* on the fast/exact paths
//! and bounded drift on the sampled path; these properties are that
//! promise, executable.

use crate::rank::robust_rank_order_naive;
use crate::regression::theil_sen_exact;
use crate::{median, quantile, ratio_regression, robust_rank_order, theil_sen, theil_sen_seeded};
use proptest::prelude::*;

/// Deterministic sample vector from a seed: either a smooth spread or a
/// coarse half-integer grid (the grid forces tie groups, the rank test's
/// hard case). Optionally salts in NaNs and zeros for the no-panic
/// property.
fn synth(seed: u64, len: usize, grid: bool, with_nans: bool) -> Vec<f64> {
    let mut state = seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..len)
        .map(|_| {
            let bits = next();
            if with_nans && bits % 11 == 0 {
                return f64::NAN;
            }
            if grid {
                ((bits % 101) as f64 - 50.0) / 2.0
            } else {
                ((bits % 2_000_001) as f64 - 1_000_000.0) / 1000.0
            }
        })
        .collect()
}

/// f64 equality that also matches NaN with NaN — the kernels must agree
/// even on their degenerate outputs.
fn same(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a == b
}

proptest! {
    #[test]
    fn fast_rank_order_matches_naive(
        seed in any::<u64>(),
        nx in 0usize..64,
        ny in 0usize..64,
        grid in any::<bool>(),
    ) {
        let xs = synth(seed, nx, grid, false);
        let ys = synth(seed.wrapping_add(1), ny, grid, false);
        let fast = robust_rank_order(&xs, &ys);
        let naive = robust_rank_order_naive(&xs, &ys);
        prop_assert!(same(fast.z, naive.z), "z {} vs {}", fast.z, naive.z);
        prop_assert!(same(fast.p_value, naive.p_value), "p {} vs {}", fast.p_value, naive.p_value);
        prop_assert_eq!(fast.direction, naive.direction);
        prop_assert!(same(fast.median_diff, naive.median_diff));
    }

    #[test]
    fn selection_median_matches_sort_quantile(
        seed in any::<u64>(),
        n in 0usize..80,
        grid in any::<bool>(),
    ) {
        // median() takes the select_nth fast path; quantile(·, 0.5) is the
        // original full-sort implementation. Bit-identical, not "close".
        let xs = synth(seed, n, grid, false);
        prop_assert!(same(median(&xs), quantile(&xs, 0.5)));
    }

    #[test]
    fn theil_sen_is_exact_below_the_cap(
        seed in any::<u64>(),
        nx in 0usize..40,
        ny in 0usize..40,
    ) {
        // 40 points max ⇒ at most 780 pairs, far under the cap: the
        // default entry point must be the exact estimator, even for
        // mismatched lengths (both degenerate the same way).
        let xs = synth(seed, nx, false, false);
        let ys = synth(seed.wrapping_add(2), ny, false, false);
        prop_assert_eq!(theil_sen(&xs, &ys), theil_sen_exact(&xs, &ys));
    }

    #[test]
    fn sampled_theil_sen_recovers_slope_within_tolerance(
        slope in -5.0f64..5.0,
        intercept in -100.0f64..100.0,
        seed in any::<u64>(),
    ) {
        // A clean 500-point line with deterministic bounded wobble; the
        // sampled estimator (cap 4000 ≪ 124 750 pairs) must land near the
        // true slope for every seed.
        let xs: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| intercept + slope * x + ((x * 17.0) % 7.0 - 3.0) * 0.1)
            .collect();
        let fit = theil_sen_seeded(&xs, &ys, 4_000, seed);
        prop_assert!(
            (fit.slope - slope).abs() < 0.05,
            "seed {} slope {} vs true {}", seed, fit.slope, slope
        );
    }

    #[test]
    fn no_kernel_panics_on_adversarial_inputs(
        seed in any::<u64>(),
        nx in 0usize..32,
        ny in 0usize..32,
    ) {
        // Mismatched lengths, NaNs, zeros: everything returns, nothing
        // aborts. (Values are unchecked here — other properties pin them.)
        let xs = synth(seed, nx, true, true);
        let ys = synth(seed.wrapping_add(3), ny, true, true);
        let _ = robust_rank_order(&xs, &ys);
        let _ = median(&xs);
        let _ = theil_sen(&xs, &ys);
        let _ = ratio_regression(&xs, &ys);
    }
}
