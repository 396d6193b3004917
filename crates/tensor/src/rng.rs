//! Seedable random-number helpers.
//!
//! Every stochastic component in the workspace (weight init, dropout, trace
//! generation, subsampling) draws from this wrapper so experiments are
//! reproducible from a single `--seed` flag.

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

/// A seedable RNG with the handful of distributions the workspace needs.
pub struct Rng {
    inner: StdRng,
    /// Cached second sample from the Box–Muller transform.
    spare_normal: Option<f32>,
}

impl Rng {
    /// Deterministic RNG from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        debug_assert!(lo < hi, "uniform requires lo < hi");
        lo + (hi - lo) * self.inner.gen::<f32>()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "below(0)");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with success probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen::<f64>() < p
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f32 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0, 1] to keep ln() finite.
        let u1: f32 = 1.0 - self.inner.gen::<f32>();
        let u2: f32 = self.inner.gen::<f32>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.standard_normal()
    }

    /// Exponential sample with the given rate parameter.
    pub fn exponential(&mut self, rate: f32) -> f32 {
        debug_assert!(rate > 0.0);
        let u: f32 = 1.0 - self.inner.gen::<f32>();
        -u.ln() / rate
    }

    /// Poisson sample (Knuth's method; adequate for the small means used by
    /// the trace generator's burst process).
    pub fn poisson(&mut self, lambda: f64) -> usize {
        debug_assert!(lambda >= 0.0);
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0f64;
        loop {
            p *= self.inner.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Fisher–Yates shuffle of `indices`.
    pub fn shuffle(&mut self, indices: &mut [usize]) {
        for i in (1..indices.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            indices.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::seed_from(42);
        let mut b = Rng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..32)
            .filter(|_| a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0))
            .count();
        assert!(same < 4);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from(3);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn poisson_mean_close_to_lambda() {
        let mut rng = Rng::seed_from(4);
        let n = 5_000;
        let total: usize = (0..n).map(|_| rng.poisson(3.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn exponential_is_positive_with_right_mean() {
        let mut rng = Rng::seed_from(5);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.exponential(2.0)).collect();
        assert!(samples.iter().all(|&x| x >= 0.0));
        let mean = samples.iter().sum::<f32>() / n as f32;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from(6);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn below_and_chance_bounds() {
        let mut rng = Rng::seed_from(7);
        for _ in 0..100 {
            assert!(rng.below(5) < 5);
        }
        let hits = (0..1000).filter(|_| rng.chance(0.25)).count();
        assert!((150..350).contains(&hits), "hits {hits}");
    }
}
