//! Property tests pinning the online (per-sample) changepoint kernels to
//! their batch counterpart.
//!
//! The streaming verifier promises that the per-sample changepoint
//! detector replays to the batch shift list, at the native granularity
//! and on every coarsened lane. These properties are that promise,
//! executable.

use cornet_stats::{detect_level_shifts, replay_level_shifts, MultiTimescaleDetector};
use proptest::prelude::*;

/// Deterministic sample vector from a seed (xorshift), optionally salted
/// with NaNs (the missing-data case every kernel must tolerate) and tie
/// groups (a coarse grid).
fn synth(seed: u64, len: usize, grid: bool, with_nans: bool) -> Vec<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..len)
        .map(|_| {
            let bits = next();
            if with_nans && bits % 13 == 0 {
                return f64::NAN;
            }
            if grid {
                ((bits % 41) as f64 - 20.0) / 2.0
            } else {
                ((bits % 400_001) as f64 - 200_000.0) / 100.0
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn online_changepoint_replays_to_batch(
        seed in any::<u64>(),
        pre_len in 0usize..40,
        post_len in 0usize..40,
        window in 2usize..8,
        step in -30.0f64..30.0,
        with_nans in any::<bool>(),
    ) {
        // A synthetic step series (including degenerate lengths around the
        // 2×window boundary) must yield the identical merged shift list.
        let mut xs = synth(seed, pre_len, false, with_nans);
        let mut post: Vec<f64> = synth(seed.wrapping_add(3), post_len, false, with_nans)
            .iter()
            .map(|v| v + step * 100.0)
            .collect();
        xs.append(&mut post);
        let batch = detect_level_shifts(&xs, window, 5.0);
        let streamed = replay_level_shifts(&xs, window, 5.0);
        prop_assert_eq!(streamed, batch);
    }

    #[test]
    fn multi_timescale_lanes_match_coarsened_batch(
        seed in any::<u64>(),
        n in 0usize..160,
        window in 2usize..6,
        factor in 1usize..26,
    ) {
        let xs = synth(seed, n, false, true);
        let coarse: Vec<f64> = xs
            .chunks(factor)
            .map(|c| {
                let clean: Vec<f64> = c.iter().copied().filter(|v| !v.is_nan()).collect();
                if clean.is_empty() {
                    f64::NAN
                } else {
                    clean.iter().sum::<f64>() / clean.len() as f64
                }
            })
            .collect();
        let mut det = MultiTimescaleDetector::new(&[factor], window, 5.0);
        for &v in &xs {
            det.push(v);
        }
        let mut lanes = det.finish();
        prop_assert_eq!(lanes.len(), 1);
        let (lane_factor, shifts) = lanes.remove(0);
        prop_assert_eq!(lane_factor, factor);
        prop_assert_eq!(shifts, detect_level_shifts(&coarse, window, 5.0));
    }
}
