//! Seeded randomness helpers shared by the generators.
//!
//! The offline crate set has `rand` but no `rand_distr`, so the normal
//! sampler is a small Box–Muller implementation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG from a seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Sample a normal deviate via Box–Muller.
pub fn normal(rng: &mut StdRng, mean: f64, sd: f64) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + sd * z
}

/// Pick an index according to (unnormalized) weights.
pub fn weighted_pick(rng: &mut StdRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must sum positive");
    let mut x = rng.random_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..10 {
            assert_eq!(a.random_range(0..1000), b.random_range(0..1000));
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = seeded(7);
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "sd {}", var.sqrt());
    }

    #[test]
    fn weighted_pick_respects_weights() {
        let mut rng = seeded(3);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[weighted_pick(&mut rng, &[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let frac2 = counts[2] as f64 / 30_000.0;
        assert!((frac2 - 0.7).abs() < 0.03, "frac {frac2}");
    }

    #[test]
    #[should_panic(expected = "sum positive")]
    fn zero_weights_panic() {
        weighted_pick(&mut seeded(1), &[0.0, 0.0]);
    }
}
