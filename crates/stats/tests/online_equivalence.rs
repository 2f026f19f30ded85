//! Property tests pinning the online (per-sample) changepoint kernels to
//! their batch counterpart.
//!
//! The streaming verifier promises that the per-sample changepoint
//! detector replays to the batch shift list, at the native granularity
//! and on every coarsened lane. These properties are that promise,
//! executable.
//!
//! The detector keeps each half of its ring sorted and reads its medians
//! and MAD from there, selecting only when a half holds zeros of both
//! signs; the batch kernel copies and selects at every split.
//! `assert_replays_to_the_bit` holds the two to the same bits — merged
//! shifts and every raw candidate — and the edge cases below feed it what
//! that bookkeeping could get wrong: the smallest window, windows with too
//! few clean samples, feeds that are mostly NaN, flat series (MAD 0, so
//! the scale floors decide), signed zeros, subnormals and infinities, and
//! feeds long enough for every sample to cross both halves.

use cornet_stats::{
    detect_level_shifts, replay_level_shifts, LevelShift, MultiTimescaleDetector,
    OnlineLevelShiftDetector,
};
use proptest::prelude::*;

fn bits(s: &LevelShift) -> (usize, u64, u64) {
    (s.index, s.delta.to_bits(), s.score.to_bits())
}

/// Replay `xs` and compare with the batch kernel: the merged shift list
/// over the whole series, and each raw candidate against the batch kernel
/// run on that candidate's own two windows (where it has exactly one
/// split to evaluate) — `index`, `delta` and `score` to the bit.
fn assert_replays_to_the_bit(xs: &[f64], window: usize, threshold: f64) {
    let merged = |shifts: Vec<LevelShift>| shifts.iter().map(bits).collect::<Vec<_>>();
    assert_eq!(
        merged(replay_level_shifts(xs, window, threshold)),
        merged(detect_level_shifts(xs, window, threshold)),
        "merged shifts, window {window}, threshold {threshold}: {xs:?}"
    );
    let mut detector = OnlineLevelShiftDetector::new(window, threshold);
    for (n, &v) in xs.iter().enumerate() {
        let candidate = detector.push(v).candidate;
        let expected = (n + 1).checked_sub(2 * window).and_then(|from| {
            let mut alone = detect_level_shifts(&xs[from..=n], window, threshold);
            assert!(alone.len() <= 1);
            alone.pop().map(|s| LevelShift {
                index: from + window,
                ..s
            })
        });
        assert_eq!(
            candidate.as_ref().map(bits),
            expected.as_ref().map(bits),
            "candidate at sample {n}, window {window}, threshold {threshold}: {xs:?}"
        );
    }
}

const SUBNORMAL: f64 = 5e-324;

#[test]
fn smallest_window() {
    let xs = [1.0, 1.0, 9.0, 9.5, 9.0, f64::NAN, 2.0, 2.0, 2.0, -0.0, 0.0];
    for threshold in [0.0, 5.0] {
        assert_replays_to_the_bit(&xs, 2, threshold);
    }
}

#[test]
fn too_few_clean_samples_on_either_side() {
    let n = f64::NAN;
    // Pre windows, then post windows, holding 0 or 1 clean samples.
    let xs = [
        n, n, n, 4.0, 5.0, 6.0, 7.0, n, n, n, n, 8.0, 9.0, 9.0, 9.0, n, n, 1.0, n, n, 1.0, 1.0,
    ];
    for window in [2, 3, 4] {
        assert_replays_to_the_bit(&xs, window, 0.0);
    }
    assert!(replay_level_shifts(&[n; 40], 4, 0.0).is_empty());
}

#[test]
fn mostly_missing_feed() {
    // Two samples in three are NaN; a step hides in what is left.
    let xs: Vec<f64> = (0..90)
        .map(|k| match k % 3 {
            0 => (if k < 45 { 10.0 } else { 14.0 }) + (k % 7) as f64 * 0.01,
            _ => f64::NAN,
        })
        .collect();
    for window in [4, 6, 8] {
        for threshold in [0.0, 5.0] {
            assert_replays_to_the_bit(&xs, window, threshold);
        }
    }
    assert!(!replay_level_shifts(&xs, 8, 5.0).is_empty());
}

#[test]
fn constant_series_hit_the_scale_floors() {
    // MAD 0: the scale is 1e-9·|median|, or 1e-12 when the median is 0 too.
    for level in [0.0, -0.0, 3.5, -3.5, 1e-300, 1e300] {
        let flat = vec![level; 24];
        assert_replays_to_the_bit(&flat, 4, 0.0);
        let mut step = flat.clone();
        step.extend(vec![level + level.abs().max(1.0); 24]);
        assert_replays_to_the_bit(&step, 4, 5.0);
        assert_eq!(replay_level_shifts(&step, 4, 5.0).len(), 1, "level {level}");
    }
}

#[test]
fn signed_zeros_subnormals_and_infinities() {
    let feeds: [&[f64]; 4] = [
        &[
            0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, -0.0, -0.0, 0.0, 0.0,
        ],
        &[
            0.0,
            SUBNORMAL,
            -SUBNORMAL,
            0.0,
            -0.0,
            SUBNORMAL,
            SUBNORMAL,
            0.0,
            -SUBNORMAL,
            -0.0,
            2.0 * SUBNORMAL,
            0.0,
        ],
        &[
            1.0, 1.0, -0.0, 0.0, 1.0, -0.0, -0.0, 0.0, 0.0, 1.0, 1.0, 1.0,
        ],
        &[
            1.0,
            f64::INFINITY,
            f64::INFINITY,
            2.0,
            f64::NEG_INFINITY,
            f64::INFINITY,
            3.0,
            f64::INFINITY,
            f64::INFINITY,
            f64::INFINITY,
            1.0,
            1.0,
        ],
    ];
    for xs in feeds {
        for window in [2, 3, 4, 6] {
            for threshold in [0.0, 1e-9, 5.0] {
                assert_replays_to_the_bit(xs, window, threshold);
            }
        }
    }
}

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

/// A feed over an alphabet where ties, signed zeros, subnormals, huge
/// magnitudes and missing samples are the rule, not the exception.
fn hostile(seed: u64, len: usize) -> Vec<f64> {
    const ALPHABET: [f64; 13] = [
        f64::NAN,
        f64::NAN,
        0.0,
        -0.0,
        SUBNORMAL,
        -SUBNORMAL,
        1.0,
        1.0 + f64::EPSILON,
        7.0,
        -7.0,
        1e300,
        -1e300,
        f64::INFINITY,
    ];
    synth(seed, len, false, false)
        .iter()
        .map(|v| ALPHABET[(v.abs() * 100.0) as usize % ALPHABET.len()])
        .collect()
}

proptest! {
    #[test]
    fn hostile_feeds_replay_to_the_bit(
        seed in any::<u64>(),
        len in 0usize..48,
        window in 2usize..7,
        threshold in 0usize..3,
    ) {
        assert_replays_to_the_bit(&hostile(seed, len), window, [0.0, 1e-9, 5.0][threshold]);
    }

    #[test]
    fn long_feeds_replay_to_the_bit(
        seed in any::<u64>(),
        len in 0usize..600,
        window in 2usize..17,
        alphabet in 0usize..3,
        threshold in 0usize..3,
    ) {
        // Long enough for every sample to enter, cross and leave both
        // halves many times over.
        let xs = match alphabet {
            0 => hostile(seed, len),
            1 => synth(seed, len, true, false),
            _ => synth(seed, len, true, true),
        };
        assert_replays_to_the_bit(&xs, window, [0.0, 1e-9, 5.0][threshold]);
    }

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
